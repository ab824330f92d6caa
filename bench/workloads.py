"""Seeded request lists for the benchmark workloads.

Every request is a `kschur` command line, served by `kschur.cli.main`.
The request lists depend only on the seed and on the request space
recorded in `expected.json`, never on the library under test, so the
same seed gives the same inputs on every commit.

session  Four sub-sessions, each with its own empty cache directory,
         over a four-way split of a fixed pool of 119 k-bounded
         partitions (k=4 sizes 6-9, k=5 sizes 6-8, k=6 sizes 6-7).
         Every pool partition is requested once as a cache miss; the
         remaining `kschur` requests repeat keys of the sub-session with
         Zipf-skewed popularity (s=1.1), which makes 70% of them cache
         hits.  About one request in ten is an `lr` or `core` request
         on a key of the sub-session.  Solving every pool key exactly
         once keeps the solve work the same for every seed.  The split
         and the popularity ranking are fixed properties of the pool:
         a seeded ranking would let the seed pick which documents are
         hot, and hit latency follows the hot documents' sizes (5 to
         679 terms), so the median latency moved by 30% from seed to
         seed.  The seed draws the repeats, the lr/core mix and the
         order, samples of one traffic mix.
verify   One `kschur verify --kmax 5 --suite all` (146 checks, about a
         second).  At --kmax 6 one pass takes 8-12 s and its time moved by
         30% between runs on a shared 2-vCPU VM; at --kmax 5 a run
         repeats it some thirty times.  It has no seeded input, so the
         seed is only recorded.
rect     Every `kschur rect --k K --rows r --formula all` with
         6 <= K <= 10 once, in a seeded order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

POOL_SPEC = ((4, range(6, 10)), (5, range(6, 9)), (6, range(6, 8)))
SESSION_GROUPS = 4
SESSION_KSCHUR_PER_GROUP = 100
SESSION_OTHER_PER_GROUP = 11
ZIPF_S = 1.1
RECT_KS = range(6, 11)
VERIFY_ARGV = ("verify", "--kmax", "5", "--suite", "all")

WORKLOADS = ("session", "verify", "rect")


@dataclass(frozen=True)
class Request:
    kind: str  # the CLI subcommand
    argv: tuple[str, ...]
    group: int = 0  # session sub-session; each has its own cache directory
    k: int = 0
    lam: Optional[tuple[int, ...]] = None  # kschur requests only

    @property
    def cmdline(self) -> str:
        return " ".join(self.argv)


def partitions(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n with parts at most max_part, largest part first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def pool() -> list[tuple[int, tuple[int, ...]]]:
    return [(k, lam) for k, sizes in POOL_SPEC for n in sizes for lam in partitions(n, k)]


def pool_key(k: int, lam: tuple[int, ...]) -> str:
    return f"{k}:{','.join(map(str, lam))}"


def has_maximal_rectangle(k: int, lam: tuple[int, ...]) -> bool:
    """True when lam contains r equal parts c with c + r = k + 1."""
    return any(lam.count(c) >= k + 1 - c for c in range(1, k + 1))


def kschur_request(k: int, lam: tuple[int, ...], group: int = 0) -> Request:
    argv = ("kschur", "--k", str(k), "--partition", ",".join(map(str, lam)), "--format", "json")
    return Request("kschur", argv, group, k, lam)


def rect_request(k: int, rows: int) -> Request:
    argv = ("rect", "--k", str(k), "--rows", str(rows), "--formula", "all", "--format", "json")
    return Request("rect", argv, k=k)


def rect_space() -> list[Request]:
    return [rect_request(k, rows) for k in RECT_KS for rows in range(1, k + 1)]


def session_list(seed: int, side_requests: dict[str, list[list[str]]]) -> list[Request]:
    """The session request list; side_requests maps each pool key to the
    argv lists of its lr and core requests."""
    keys = pool()
    random.Random("session popularity").shuffle(keys)
    rng = random.Random(f"session:{seed}")
    requests: list[Request] = []
    for group in range(SESSION_GROUPS):
        members = keys[group::SESSION_GROUPS]  # most popular first
        weights = [1 / rank**ZIPF_S for rank in range(1, len(members) + 1)]
        repeats = rng.choices(members, weights, k=SESSION_KSCHUR_PER_GROUP - len(members))
        batch = [kschur_request(k, lam, group) for k, lam in members + repeats]
        for _ in range(SESSION_OTHER_PER_GROUP):
            k, lam = rng.choice(members)
            argv = tuple(rng.choice(side_requests[pool_key(k, lam)]))
            batch.append(Request(argv[0], argv, group, k))
        rng.shuffle(batch)
        requests.extend(batch)
    return requests


def rect_list(seed: int) -> list[Request]:
    """Every rectangle request once, in a seeded order."""
    requests = rect_space()
    random.Random(f"rect:{seed}").shuffle(requests)
    return requests


def verify_list() -> list[Request]:
    return [Request("verify", VERIFY_ARGV)]

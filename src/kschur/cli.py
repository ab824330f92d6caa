"""Command line surface.

Exit codes: 0 success or all checks passed, 1 verification failure
or a closed standard output, 2 usage error.

The argument parser is built once, when this module is imported, and
every `main` call reuses it: parsing leaves no state in it, and help
reads the terminal width when it is printed.  A process that imports
the module once and calls `main` many times (tests, an embedding
program, a server that forks per request after the import) builds it
once; a one-shot run builds it once either way, at import.  The import
also parses one command line per subcommand, so that the regular
expressions argparse compiles on a first parse are in `re`'s cache
before any fork: a forked child's parse then takes about 0.7 ms instead
of 2.2 ms on a 2-vCPU VM.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Callable, Iterable, Optional, Sequence

from . import cores
from .cache import ExpansionCache
from .documents import ExpansionDocument
from .nilcoxeter import kschur, lr_coefficient, verify_pieri
from .rectangles import (
    Rectangle,
    all_rectangles,
    by_columns,
    by_readings,
    by_translations,
    by_windows,
    verify_commutation,
    verify_equivalences,
    verify_main,
)
from .reports import Report


# Ceilings on the input, so that a request past the measured reach of the
# code is refused at once instead of recursing too deep or running for
# hours.  Measured on a 2-vCPU VM with Python 3.11.
#
# verify --kmax, and the k of kschur and lr: verify --kmax 8 --suite all
# takes 3.0-3.5 s and 93 MB peak RSS (47 s and 813 MB before kschur solved
# the k-conjugate with the larger first part); 9 waits until the memo's
# memory is bounded
KMAX_CEILING = 8
# the size of every k-bounded partition argument: it admits the 4x4
# rectangle at k = 7, and at k = 8 the slowest size-16 partition tried,
# (4,4,2,2,2,2), uncached, takes 17-21 s and 329 MB (tried: the 31 whose
# solved side, the partition or its k-conjugate, has the smallest first
# parts; (3,3,3,2,2,1,1,1), 30-31 s and 622 MB when it was solved itself,
# now takes 4.4 s)
SIZE_CEILING = 16
# a core argument may be as large as the largest core of an admitted
# partition, the 2-core of (1^SIZE_CEILING)
CORE_SIZE_CEILING = SIZE_CEILING * (SIZE_CEILING + 1) // 2
# the letters of a core act chain, each of which can add cells: on the
# largest admitted core at k = 1 (the fastest growth), 128 letters take
# about 0.25 s, 256 about 0.9 s and 400 about 3 s
CHAIN_CEILING = 128
# rect --k: the slowest row (all four formulas, JSON, best of three in one
# process) takes about 0.03-0.05 s at k = 10, 0.07-0.09 s at k = 11 and
# 0.13-0.21 s at k = 12, and grows about 1.7-2.5 times per k; the ceiling
# stays at 12, so that exit codes stay as they were
RECT_K_CEILING = 12
# core word --k: w_lambda's window has k + 1 entries; the slowest admitted
# partition tried takes 0.28 s and 28 MB at k = 10^5, 1.2 s and 131 MB at 10^6
WORD_K_CEILING = 100_000


class UsageError(Exception):
    pass


def parse_partition(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse partition {cores.clip(text)}; use comma-separated parts")
    try:
        return cores.as_partition(parts)
    except ValueError as exc:
        raise UsageError(str(exc))


def parse_bounded(text: str, k: int) -> tuple[int, ...]:
    parts = parse_partition(text)
    if not cores.is_k_bounded(parts, k):
        raise UsageError(f"partition {cores.clip(parts)} is not {k}-bounded")
    if sum(parts) > SIZE_CEILING:
        raise UsageError(
            f"partition size must be at most {SIZE_CEILING}, got {cores.clip(sum(parts))}"
        )
    return parts


def parse_core(text: str, k: int) -> tuple[int, ...]:
    parts = parse_partition(text)
    if sum(parts) > CORE_SIZE_CEILING:
        raise UsageError(
            f"core size must be at most {CORE_SIZE_CEILING}, got {cores.clip(sum(parts))}"
        )
    if not cores.is_core(parts, k):
        raise UsageError(f"{cores.clip(parts)} is not a {k + 1}-core")
    return parts


def check_k(k: int, ceiling: int) -> None:
    if k > ceiling:
        raise UsageError(f"k must be at most {ceiling}, got {cores.clip(k)}")


def _emit_document(doc: ExpansionDocument, fmt: str) -> None:
    print(doc.to_json() if fmt == "json" else doc.to_text())


def cmd_kschur(args: argparse.Namespace) -> int:
    check_k(args.k, KMAX_CEILING)
    lam = parse_bounded(args.partition, args.k)
    cache = None if args.no_cache else ExpansionCache()
    doc = cache.get(args.k, lam) if cache is not None else None
    if doc is None:
        doc = ExpansionDocument.from_element(lam, kschur(args.k, lam))
        if cache is not None:
            cache.put(doc)
    _emit_document(doc, args.format)
    return 0


_FORMULAS = {
    "x": by_readings,
    "y": by_translations,
    "z": by_columns,
    "w": by_windows,
}


def cmd_rect(args: argparse.Namespace) -> int:
    check_k(args.k, RECT_K_CEILING)
    if not 1 <= args.rows <= args.k:
        raise UsageError(f"rows must be in 1..{args.k}, got {cores.clip(args.rows)}")
    rect = Rectangle.with_rows(args.k, args.rows)
    names = _FORMULAS if args.formula == "all" else [args.formula]
    elements = {name: _FORMULAS[name](rect) for name in names}
    # the by_translations element, whenever it is built, keeps the words its
    # walks peeled, so the shared document built from it peels none; every
    # element equal to the reference shares its document
    reference = elements["y" if "y" in elements else args.formula]
    shared = ExpansionDocument.from_element(rect, reference)
    docs = {
        name: shared if element == reference else ExpansionDocument.from_element(rect, element)
        for name, element in elements.items()
    }
    equal = all(doc is shared for doc in docs.values())
    if args.formula != "all":
        _emit_document(shared, args.format)
    elif args.format == "json":
        # a document encodes once, so a shared one is spliced in each time whole
        formulas = {name: doc.to_json() for name, doc in docs.items()}
        fields = {"k": args.k, "rows": rect.rows, "cols": rect.cols, "equal": equal}
        encoded = {key: json.dumps(value) for key, value in fields.items()}
        print(_json_object({**encoded, "formulas": _json_object(formulas)}))
    else:
        for name, doc in docs.items():
            print(f"formula {name}:")
            print(doc.to_text())
        print(f"equal: {str(equal).lower()}")
    return 0


def _json_object(encoded: dict[str, str]) -> str:
    """The JSON object of already encoded values, as json.dumps writes it
    with sort_keys=True and separators=(",", ":")."""
    items = (f"{json.dumps(key)}:{value}" for key, value in sorted(encoded.items()))
    return "{" + ",".join(items) + "}"


def _rectangles(kmax: int) -> Iterable[Rectangle]:
    return (rect for k in range(1, kmax + 1) for rect in all_rectangles(k))


# the sweeps of each suite for a kmax, in the order `--suite all` runs them
_SUITES: dict[str, Callable[[int], Iterable[Report]]] = {
    "equiv": lambda kmax: [verify_equivalences(kmax)],
    "main": lambda kmax: map(verify_main, _rectangles(kmax)),
    "commute": lambda kmax: map(verify_commutation, _rectangles(kmax)),
    "pieri": lambda kmax: (verify_pieri(k, max_size=3) for k in range(1, kmax + 1)),
}


def cmd_verify(args: argparse.Namespace) -> int:
    kmax = args.kmax
    if not 1 <= kmax <= KMAX_CEILING:
        raise UsageError(f"kmax must be in 1..{KMAX_CEILING}, got {cores.clip(kmax)}")
    names = _SUITES if args.suite == "all" else [args.suite]
    sweeps = (sweep for name in names for sweep in _SUITES[name](kmax))
    report = Report(tuple(check for sweep in sweeps for check in sweep.checks))
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0 if report.passed else 1


_LETTERS = re.compile(r"([us])(\d+)|,|\s")


def parse_generator_chain(text: str) -> list[tuple[str, int]]:
    """Parse chains like "u1", "u1u3" or "s2,s0,s1" into (kind, index)."""
    out = []
    pos = 0
    while pos < len(text):
        match = _LETTERS.match(text, pos)
        if match is None:
            raise UsageError(f"cannot parse generators {cores.clip(text)} at position {pos}")
        if match.group(1):
            try:
                out.append((match.group(1), int(match.group(2))))
            except ValueError:  # more digits than int() converts
                raise UsageError(f"generator index at position {pos} is too long")
        pos = match.end()
    if not out:
        raise UsageError("empty generator chain")
    return out


def cmd_core(args: argparse.Namespace) -> int:
    k = args.k

    def emit(parts: Optional[tuple[int, ...]]) -> None:
        if args.format == "json":
            print(json.dumps({"parts": None if parts is None else list(parts)}))
        else:
            print("0" if parts is None else ",".join(map(str, parts)))

    if args.action == "act":
        chain = parse_generator_chain(args.args[0])
        if len(chain) > CHAIN_CEILING:
            raise UsageError(
                f"generator chain must have at most {CHAIN_CEILING} letters, got {len(chain)}"
            )
        for _, i in chain:
            if not 0 <= i <= k:
                raise UsageError(f"generator index {cores.clip(i)} out of range 0..{k}")
        emit(cores._apply_letters(parse_core(args.args[1], k), chain, k))
    elif args.action == "to-core":
        emit(cores.bounded_to_core(parse_bounded(args.args[0], k), k))
    elif args.action == "to-bounded":
        emit(cores.core_to_bounded(parse_core(args.args[0], k), k))
    else:  # word; argparse admits no other action
        check_k(k, WORD_K_CEILING)
        lam = parse_bounded(args.args[0], k)
        w = cores.w_of_partition(lam, k)
        word = w.reduced_word()
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "word": list(word),
                        "window": list(w.window),
                        "core": list(cores.bounded_to_core(lam, k)),
                    }
                )
            )
        else:
            print(" ".join(map(str, word)))
    return 0


_CORE_ARG_COUNT = {"act": 2, "to-core": 1, "to-bounded": 1, "word": 1}


def cmd_lr(args: argparse.Namespace) -> int:
    check_k(args.k, KMAX_CEILING)
    lam, mu, nu = (parse_bounded(text, args.k) for text in (args.lam, args.mu, args.nu))
    print(lr_coefficient(args.k, lam, mu, nu))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kschur",
        description=(
            "k-Schur functions in the standard basis of the affine nilCoxeter "
            "algebra, with closed formulas for maximal rectangles"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p: argparse.ArgumentParser, formats: bool = True) -> argparse.ArgumentParser:
        """Add the options several subcommands share, each declared once."""
        p.add_argument("--k", type=int, required=True)
        if formats:
            p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = shared(sub.add_parser("kschur", help="expand a k-Schur function"))
    p.add_argument("--partition", required=True, help="comma-separated parts; '' for empty")
    p.add_argument("--no-cache", action="store_true", help="skip the persisted cache")
    p.set_defaults(func=cmd_kschur)

    p = shared(sub.add_parser("rect", help="closed formulas for a maximal rectangle"))
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--formula", choices=(*_FORMULAS, "all"), default="all")
    p.set_defaults(func=cmd_rect)

    p = sub.add_parser("verify", help="run verification sweeps")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--suite", choices=(*_SUITES, "all"), default="all")
    p.set_defaults(func=cmd_verify)

    p = shared(sub.add_parser("core", help="core and bounded partition operations"))
    p.add_argument("action", choices=tuple(_CORE_ARG_COUNT))
    p.add_argument("args", nargs="*")
    p.set_defaults(func=cmd_core)

    p = shared(sub.add_parser("lr", help="a k-Littlewood-Richardson coefficient"), formats=False)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.set_defaults(func=cmd_lr)

    return parser


def _compile_patterns(parser: argparse.ArgumentParser) -> None:
    """Parse one command line per subcommand, each option given once.

    argparse compiles the regular expressions that match arguments on
    the first parse that needs them, into `re`'s per-process cache; after
    these parses a child forked from this process finds them there."""
    for argv in (
        ["kschur", "--k", "1", "--partition", "1", "--format", "text", "--no-cache"],
        ["rect", "--k", "1", "--rows", "1", "--formula", "all", "--format", "text"],
        ["verify", "--kmax", "1", "--suite", "all"],
        ["core", "--k", "1", "--format", "text", "act", "u1", "1"],
        ["lr", "--k", "1", "--lambda", "1", "--mu", "1", "--nu", "1"],
    ):
        parser.parse_args(argv)


# holds only this module's cmd_* functions, so a tracer that rebinds
# library functions by name still reaches every call they make
_PARSER = build_parser()
_compile_patterns(_PARSER)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "core" and len(args.args) != _CORE_ARG_COUNT[args.action]:
            raise UsageError(f"core {args.action} takes {_CORE_ARG_COUNT[args.action]} argument(s)")
        if getattr(args, "k", 1) < 1:
            raise UsageError("--k must be >= 1")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; the interpreter's flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    raise SystemExit(status)


if __name__ == "__main__":
    run()

import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from kschur import cli, cores, nilcoxeter
from kschur.affine import AffinePermutation, rotate_word, rotated
from kschur.cache import ExpansionCache
from kschur.cli import (
    CHAIN_CEILING,
    CORE_SIZE_CEILING,
    RECT_K_CEILING,
    SIZE_CEILING,
    WORD_K_CEILING,
    UsageError,
    main,
    parse_generator_chain,
    parse_partition,
)
from kschur.cores import k_bounded_partitions, w_of_partition
from kschur.documents import ExpansionDocument
from kschur.nilcoxeter import AlgebraElement, h, kschur
from kschur.rectangles import Rectangle, all_rectangles


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_partition():
    assert parse_partition("2,2,2") == (2, 2, 2)
    assert parse_partition("") == ()
    assert parse_partition(" ") == ()
    with pytest.raises(Exception):
        parse_partition("2,x")
    with pytest.raises(Exception):
        parse_partition("1,2")


def test_parse_generator_chain():
    assert parse_generator_chain("u1") == [("u", 1)]
    assert parse_generator_chain("u1u3") == [("u", 1), ("u", 3)]
    assert parse_generator_chain("s2,s0, s1") == [("s", 2), ("s", 0), ("s", 1)]
    with pytest.raises(Exception):
        parse_generator_chain("q7")
    with pytest.raises(cli.UsageError, match="empty generator chain"):
        parse_generator_chain(",")


def test_kschur_command_json(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    code, out, _ = run_cli(
        capsys, "kschur", "--k", "4", "--partition", "2,2,2", "--format", "json"
    )
    assert code == 0
    doc = ExpansionDocument.from_json(out)
    assert doc.k == 4
    assert doc.index == (2, 2, 2)
    assert len(doc.terms) == 10
    assert doc.to_element() == kschur(4, (2, 2, 2))


def test_kschur_command_empty_partition(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    code, out, _ = run_cli(
        capsys, "kschur", "--k", "3", "--partition", "", "--format", "json"
    )
    assert code == 0
    doc = ExpansionDocument.from_json(out)
    assert doc.to_element() == AlgebraElement.unit(3)


def test_kschur_command_rejects_unbounded(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    code, _, err = run_cli(capsys, "kschur", "--k", "2", "--partition", "3,1")
    assert code == 2
    assert "error" in err


def test_kschur_command_matches_h_expansion(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    code, out, _ = run_cli(
        capsys, "kschur", "--k", "3", "--partition", "2,1", "--format", "json"
    )
    assert code == 0
    from kschur.nilcoxeter import h_product, kschur_h_expansion

    total = AlgebraElement.zero(3)
    for mu, c in kschur_h_expansion(3, (2, 1)).items():
        total = total + c * h_product(3, mu)
    assert ExpansionDocument.from_json(out).to_element() == total


def test_rect_command_all(capsys):
    code, out, _ = run_cli(
        capsys, "rect", "--k", "4", "--rows", "3", "--formula", "all", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["cols"] == 2
    docs = payload["formulas"]
    assert set(docs) == {"x", "y", "z", "w"}
    assert all(len(d["terms"]) == 10 for d in docs.values())
    assert docs["x"] == docs["y"] == docs["z"] == docs["w"]


def test_rect_command_all_prints_a_differing_formula_on_its_own(capsys, monkeypatch):
    # formulas equal to the by_translations element share its document; when
    # y itself differs, x, z and w each get their own, all three alike
    rect = Rectangle.with_rows(4, 3)
    by_translations = cli._FORMULAS["y"]
    short = AlgebraElement(4, by_translations(rect).items()[1:])
    monkeypatch.setitem(cli._FORMULAS, "y", lambda r: short)
    code, out, _ = run_cli(
        capsys, "rect", "--k", "4", "--rows", "3", "--formula", "all", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is False
    docs = payload["formulas"]
    assert docs["y"] == ExpansionDocument.from_element(rect, short).to_dict()
    assert len(docs["y"]["terms"]) == 9
    assert docs["x"] == docs["z"] == docs["w"]
    assert docs["x"]["terms"][1:] == docs["y"]["terms"]


def rect_payload(rect, elements):
    """The `rect --formula all --format json` payload as a dict, built from
    each formula's document the way json.dumps would encode it whole."""
    docs = {name: ExpansionDocument.from_element(rect, el) for name, el in elements.items()}
    first = next(iter(elements.values()))
    return {
        "k": rect.k,
        "rows": rect.rows,
        "cols": rect.cols,
        "equal": all(el == first for el in elements.values()),
        "formulas": {name: doc.to_dict() for name, doc in docs.items()},
    }


def test_rect_command_json_envelope_is_json_dumps_of_the_payload(capsys):
    # the envelope splices in each document's encoding: byte for byte what
    # encoding the whole payload with sorted keys and compact separators gives
    for k in range(1, 7):
        for rect in all_rectangles(k):
            argv = ["rect", "--k", str(k), "--rows", str(rect.rows), "--format", "json"]
            code, out, _ = run_cli(capsys, *argv)
            payload = rect_payload(rect, {name: fn(rect) for name, fn in cli._FORMULAS.items()})
            assert code == 0
            assert out == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def test_rect_command_json_envelope_with_a_differing_formula(capsys, monkeypatch):
    rect = Rectangle.with_rows(4, 3)
    elements = {name: fn(rect) for name, fn in cli._FORMULAS.items()}
    elements["z"] = AlgebraElement(4, elements["z"].items()[:-1])
    monkeypatch.setitem(cli._FORMULAS, "z", lambda r: elements["z"])
    code, out, _ = run_cli(capsys, "rect", "--k", "4", "--rows", "3", "--format", "json")
    assert code == 0
    payload = rect_payload(rect, elements)
    assert payload["equal"] is False
    assert out == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def test_each_document_is_encoded_once(capsys, tmp_path, monkeypatch):
    # a kschur miss writes the cache and prints from one encoding; rect
    # encodes its one shared document once, however many formulas share it
    encoded = []
    to_dict = ExpansionDocument.to_dict
    monkeypatch.setattr(
        ExpansionDocument, "to_dict", lambda doc: encoded.append(doc) or to_dict(doc)
    )
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    argv = ["kschur", "--k", "3", "--partition", "2,1", "--format", "json"]
    miss = run_cli(capsys, *argv)
    assert len(encoded) == 1
    assert run_cli(capsys, *argv) == miss  # a hit encodes the document it read
    assert len(encoded) == 2
    assert miss == (0, kschur_json(3, (2, 1)) + "\n", "")
    encoded.clear()
    assert run_cli(capsys, "rect", "--k", "4", "--rows", "3", "--format", "json")[0] == 0
    assert len(encoded) == 1


def test_rect_command_peels_no_word_when_the_formulas_agree(capsys, monkeypatch):
    # the shared document reads the words by_translations kept from its
    # walks, and so does `--formula y` alone: no term is peeled again
    rect = ("rect", "--k", "6", "--rows", "4", "--format")
    argvs = [(*rect, "json"), (*rect, "text"), (*rect, "json", "--formula", "y")]
    expected = [run_cli(capsys, *argv) for argv in argvs]

    def refuse(w):
        raise RuntimeError("reduced_word called")

    monkeypatch.setattr(AffinePermutation, "reduced_word", refuse)
    assert [run_cli(capsys, *argv) for argv in argvs] == expected
    code, out, _ = expected[-1]
    assert code == 0 and len(ExpansionDocument.from_json(out).terms) == 35


def test_rect_command_single_formula_prints_its_entry_under_all(capsys):
    # one path builds the documents: `--formula F` prints what `--formula all`
    # prints for F, as the entry under F in JSON and the block after
    # `formula F:` in text
    for k in range(1, 9):
        for rect in all_rectangles(k):
            argv = ["rect", "--k", str(k), "--rows", str(rect.rows), "--format"]
            code, out, _ = run_cli(capsys, *argv, "json")
            assert code == 0
            entries = json.loads(out)["formulas"]
            code, out, _ = run_cli(capsys, *argv, "text")
            assert code == 0
            blocks = dict(re.findall(r"^formula (\w):\n(.*?)(?=^formula |^equal: )", out, re.M | re.S))
            assert list(blocks) == list(cli._FORMULAS)
            for name in cli._FORMULAS:
                code, out, _ = run_cli(capsys, *argv, "json", "--formula", name)
                assert code == 0 and json.loads(out) == entries[name], (rect, name)
                assert run_cli(capsys, *argv, "text", "--formula", name) == (0, blocks[name], ""), (rect, name)


def test_rect_command_single_formula(capsys):
    code, out, _ = run_cli(
        capsys, "rect", "--k", "7", "--rows", "3", "--formula", "y", "--format", "json"
    )
    assert code == 0
    doc = ExpansionDocument.from_json(out)
    assert len(doc.terms) == 56  # binomial(8, 5)
    assert doc.index == Rectangle(7, cols=5, rows=3)


def test_rect_command_text(capsys):
    code, out, _ = run_cli(capsys, "rect", "--k", "1", "--rows", "1")
    assert code == 0
    assert "equal: true" in out


def test_rect_command_text_prints_the_formulas_in_table_order(capsys):
    code, out, _ = run_cli(capsys, "rect", "--k", "4", "--rows", "3")
    assert code == 0
    heads = [line for line in out.splitlines() if line.startswith(("formula ", "equal: "))]
    assert heads == ["formula x:", "formula y:", "formula z:", "formula w:", "equal: true"]
    assert out.splitlines()[-1] == "equal: true"


def test_rect_command_rows_out_of_range(capsys):
    code, _, err = run_cli(capsys, "rect", "--k", "4", "--rows", "5")
    assert code == 2
    assert "rows" in err


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "--kmax", "1", "--suite", "all")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(
        set(c) >= {"name", "passed", "seconds"} for c in payload["checks"]
    )


def test_verify_report_is_the_same_with_a_warm_or_cleared_memo(capsys):
    # the memos keep pure derived data only: a warm process reports what a
    # cleared one does, apart from the timings
    def report():
        code, out, _ = run_cli(capsys, "verify", "--kmax", "4", "--suite", "all")
        assert code == 0
        payload = json.loads(out)
        for check in payload["checks"]:
            del check["seconds"]
        return payload

    first, second = report(), report()
    nilcoxeter.clear_memo()
    assert first == second == report()
    assert first["passed"] is True


def _descending_partitions(n, largest):
    """Partitions of n with parts <= largest, in reverse lexicographic order."""
    if n == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(min(n, largest), 0, -1)
        for rest in _descending_partitions(n - first, first)
    ]


def test_verify_report_names_order_and_details(capsys):
    # the sweep order of `verify --suite all`, rebuilt without the library:
    # equivalence, then main and action per rectangle, then commutation per
    # generator index, then Pieri per k-bounded partition of size <= 3
    kmax = 3
    shapes = [(k, k + 1 - rows, rows) for k in range(1, kmax + 1) for rows in range(1, k + 1)]
    expected = [f"equivalence k={k} cols={c} rows={r}" for k, c, r in shapes]
    for k, c, r in shapes:
        expected += [f"main k={k} cols={c} rows={r}", f"single-term action k={k} cols={c} rows={r}"]
    expected += [f"commutation k={k} cols={c} rows={r} i={i}" for k, c, r in shapes for i in range(k + 1)]
    expected += [
        f"pieri k={k} lam={','.join(map(str, lam)) or '()'}"
        for k in range(1, kmax + 1)
        for n in range(4)
        for lam in _descending_partitions(n, k)
    ]
    code, out, _ = run_cli(capsys, "verify", "--kmax", str(kmax), "--suite", "all")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == expected
    assert all(c["passed"] is True for c in checks)
    assert all(isinstance(c["seconds"], float) and c["seconds"] >= 0 for c in checks)
    details = {c["name"]: c["details"] for c in checks}
    assert details["equivalence k=3 cols=2 rows=2"] == {
        "k": 3, "cols": 2, "rows": 2, "terms": 6, "expected_terms": 6,
        "readings_eq_translations": True, "readings_eq_columns": True,
        "translations_eq_windows": True,
    }
    assert details["main k=3 cols=1 rows=3"] == {
        "k": 3, "cols": 1, "rows": 3, "terms": 4, "negative_coefficients": 0,
    }
    assert details["single-term action k=2 cols=2 rows=1"] == {
        "partitions_checked": 9, "failures": [],
    }
    assert details["commutation k=3 cols=2 rows=2 i=1"] == {"i": 1, "shifted": 3, "terms": 4}
    assert details["pieri k=3 lam=2,1"] == {"k": 3, "partition": [2, 1]}
    assert details["pieri k=1 lam=()"] == {"k": 1, "partition": []}


def test_verify_command_equiv_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--kmax", "4", "--suite", "equiv")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_each_suite_is_its_slice_of_all(capsys):
    def names(suite):
        code, out, _ = run_cli(capsys, "verify", "--kmax", "3", "--suite", suite)
        assert code == 0
        return [c["name"] for c in json.loads(out)["checks"]]

    assert list(cli._SUITES) == ["equiv", "main", "commute", "pieri"]
    every = names("all")
    alone = [names(suite) for suite in cli._SUITES]
    assert all(alone)
    assert sum(alone, []) == every


def test_verify_command_bad_kmax(capsys):
    code, _, err = run_cli(capsys, "verify", "--kmax", "0")
    assert code == 2


def test_verify_command_kmax_ceiling(capsys):
    # memory, not time, sets the ceiling: on a 2-vCPU machine `verify --kmax 9
    # --suite all` ran in 128.9 s but peaked at 2,526 MB; refused at once
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--kmax", "9", "--suite", "all")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: kmax must be in 1..8")


ONES_1200 = ",".join(["1"] * 1200)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["kschur", "--k", "1", "--partition", ONES_1200, "--no-cache"], "partition size"),
        (["kschur", "--k", "9", "--partition", "1", "--no-cache"], "k must be at most 8"),
        (["lr", "--k", "60", "--lambda", "30", "--mu", "", "--nu", "30"], "k must be at most 8"),
        (["lr", "--k", "8", "--lambda", "1", "--mu", "8,8,1", "--nu", "8,8,2"], "partition size"),
        (["rect", "--k", "40", "--rows", "20"], "k must be at most"),
        (["core", "--k", "3", "to-bounded", "30000000"], "core size"),
        (["core", "--k", "3", "act", "u0", "30000000"], "core size"),
        (["core", "--k", "1", "to-core", ONES_1200], "partition size"),
        (["core", "--k", "1", "act", "u1u0" * 2000, ""], "generator chain"),
        (["core", "--k", "1000000000", "word", "1"], "k must be at most 100000, got"),
    ],
    ids=[
        "kschur size", "kschur k", "lr k", "lr size", "rect k", "to-bounded", "act",
        "to-core", "act chain", "word k",
    ],
)
def test_input_ceilings(capsys, argv, message):
    # past the measured reach a request would recurse too deep or run for
    # hours: refused at once
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "argv",
    [["kschur", "--k", "3", "--no-cache", "--partition"], ["core", "--k", "3", "to-bounded"]],
    ids=["kschur", "to-bounded"],
)
def test_trailing_zeros_are_stripped_at_once(capsys, argv):
    # zeros add nothing to a size ceiling, so 60,000 of them pass every one
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "1" + ",0" * 60_000)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (0, *run_cli(capsys, *argv, "1")[1:])


def test_input_ceilings_admit_their_edge(capsys):
    ones = ",".join(["1"] * SIZE_CEILING)
    code, out, _ = run_cli(capsys, "kschur", "--k", "1", "--partition", ones, "--no-cache")
    assert code == 0 and out
    # the core of the largest admitted partition is itself admitted
    code, core, _ = run_cli(capsys, "core", "--k", "1", "to-core", ones)
    assert code == 0 and sum(parse_partition(core)) == CORE_SIZE_CEILING
    code, out, _ = run_cli(capsys, "core", "--k", "1", "to-bounded", core.strip())
    assert (code, out.strip()) == (0, ones)
    # the longest admitted chain grows that core by one cell per row and letter
    chain = "u1u0" * (CHAIN_CEILING // 2)
    code, grown, _ = run_cli(capsys, "core", "--k", "1", "act", chain, core.strip())
    assert code == 0 and len(parse_partition(grown)) == SIZE_CEILING + CHAIN_CEILING
    code, _, _ = run_cli(capsys, "rect", "--k", str(RECT_K_CEILING), "--rows", "1", "--formula", "z")
    assert code == 0
    k = str(WORD_K_CEILING)
    code, out, _ = run_cli(capsys, "core", "--k", k, "--format", "json", "word", ones)
    assert code == 0 and len(json.loads(out)["window"]) == WORD_K_CEILING + 1


@pytest.mark.parametrize(
    "argv",
    [
        ["kschur", "--k", "3", "--no-cache", "--partition", "1,2" + ",1" * 60_000],
        ["kschur", "--k", "1", "--no-cache", "--partition", ",".join(["2"] * 60_000)],
        ["core", "--k", "3", "act", "u1" + "x" * 100_000, ""],
        ["kschur", "--k", "3", "--no-cache", "--partition", "1," + "9" * 100_000],
        ["core", "--k", "9" * 4000, "to-core", "9" * 4000],
        ["core", "--k", "3", "to-bounded", "9" * 4000],
        ["core", "--k", "3", "to-bounded", ",".join(["1"] * CORE_SIZE_CEILING)],
        ["kschur", "--k", "9" * 4000, "--no-cache", "--partition", "1"],
        ["rect", "--k", "4", "--rows", "9" * 4000],
        ["verify", "--kmax", "9" * 4000],
        ["core", "--k", "4", "act", "u" + "9" * 4000, "1"],
    ],
    ids=[
        "undecreasing", "unbounded", "chain", "unparsable", "partition size", "core size",
        "not a core", "k", "rows", "kmax", "generator index",
    ],
)
def test_error_messages_echo_a_bounded_input(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith("error:")
    assert len(line) < 300


def test_error_messages_echo_a_short_input_whole(capsys):
    code, _, err = run_cli(capsys, "kschur", "--k", "3", "--no-cache", "--partition", "1,2")
    assert (code, err) == (2, "error: partition parts must weakly decrease: (1, 2)\n")


@pytest.mark.parametrize(
    "command, shared",
    [
        ("kschur", ("--k", "--format")),
        ("rect", ("--k", "--format")),
        ("verify", ()),
        ("core", ("--k", "--format")),
        ("lr", ("--k",)),
    ],
)
def test_every_subcommand_help_lists_its_shared_options(capsys, command, shared):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    options = set(capsys.readouterr().out.replace("[", " ").split())
    assert {"--k", "--format"} & options == set(shared)


def test_core_command_act(capsys):
    code, out, _ = run_cli(capsys, "core", "--k", "4", "act", "u1", "6,4,3,1")
    assert code == 0
    assert out.strip() == "7,4,4,1,1"
    code, out, _ = run_cli(capsys, "core", "--k", "4", "act", "u0", "6,4,3,1")
    assert code == 0
    assert out.strip() == "0"


def test_core_command_act_chain(capsys):
    # s_2 s_0 s_1 s_2 s_1 s_0 applied to the empty core
    code, out, _ = run_cli(capsys, "core", "--k", "2", "act", "s2s0s1s2s1s0", "")
    assert code == 0
    assert out.strip() == "4,2,2,1,1"


def test_core_command_act_chain_dies_at_a_u_letter(capsys):
    # s_0 gives (1), u_0 finds no addable corner of residue 0 and kills
    # it; the s letters after it act on zero
    code, out, _ = run_cli(capsys, "core", "--k", "2", "act", "s1s2u0s0", "")
    assert (code, out) == (0, "0\n")
    code, out, _ = run_cli(capsys, "core", "--k", "2", "act", "s1s2u1s0", "")
    assert (code, out.strip()) == (0, "3,1,1")


def test_core_command_act_checks_each_index_once(capsys, monkeypatch):
    # the command checks the indices for its usage error and steps the
    # letters through the core action's own loop, not a second check
    def refuse(*args):
        raise AssertionError("apply_letters called")

    monkeypatch.setattr(cores, "apply_letters", refuse)
    assert run_cli(capsys, "core", "--k", "4", "act", "u1", "6,4,3,1") == (0, "7,4,4,1,1\n", "")
    code, _, err = run_cli(capsys, "core", "--k", "4", "act", "u9", "6,4,3,1")
    assert code == 2 and "generator index 9 out of range 0..4" in err


def test_core_command_bijections(capsys):
    code, out, _ = run_cli(capsys, "core", "--k", "2", "to-core", "2,1,1,1,1")
    assert code == 0
    assert out.strip() == "4,2,2,1,1"
    code, out, _ = run_cli(capsys, "core", "--k", "2", "to-bounded", "4,2,2,1,1")
    assert code == 0
    assert out.strip() == "2,1,1,1,1"
    code, out, _ = run_cli(capsys, "core", "--k", "2", "to-core", "")
    assert code == 0
    assert out.strip() == ""


def test_core_command_word(capsys):
    code, out, _ = run_cli(
        capsys, "core", "--k", "2", "--format", "json", "word", "2,1,1,1,1"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["word"]) == 6
    assert payload["core"] == [4, 2, 2, 1, 1]
    w = AffinePermutation.from_word(2, payload["word"])
    assert list(w.window) == payload["window"]
    assert w.length() == 6
    assert run_cli(capsys, "core", "--k", "2", "word", "2,1,1,1,1") == (0, "2 0 1 2 1 0\n", "")


@pytest.mark.parametrize(
    "argv, line",
    [
        (("core", "--k", "4", "act", "u1"), "error: core act takes 2 argument(s)\n"),
        (("kschur", "--k", "0", "--partition", "1"), "error: --k must be >= 1\n"),
    ],
)
def test_checks_before_the_command_print_one_usage_error(capsys, argv, line):
    assert run_cli(capsys, *argv) == (2, "", line)


def test_core_command_argument_errors(capsys):
    code, _, err = run_cli(capsys, "core", "--k", "4", "act", "u1")
    assert code == 2
    code, _, err = run_cli(capsys, "core", "--k", "2", "to-bounded", "3")
    assert code == 2  # (3) is not a 3-core
    code, _, err = run_cli(capsys, "core", "--k", "4", "act", "u9", "6,4,3,1")
    assert code == 2
    # every index is checked, also past a letter that kills the core
    code, out, err = run_cli(capsys, "core", "--k", "4", "act", "u9u0u0", "6,4,3,1")
    assert (code, out) == (2, "")
    assert "generator index 9" in err
    # an index past int()'s digit limit is a usage error, not a traceback
    code, out, err = run_cli(capsys, "core", "--k", "3", "act", "u" + "1" * 5000, "")
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    # beside a valid letter, so that dropping the long one would act as u1
    long_index = "u1u" + "9" * 5000
    with pytest.raises(UsageError, match="at position 2 is too long"):
        parse_generator_chain(long_index)
    code, out, err = run_cli(capsys, "core", "--k", "3", "act", long_index, "")
    assert (code, out, err) == (2, "", "error: generator index at position 2 is too long\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["kschur", "--k", "3", "--partition", "2,1", "--format", "json", "--no-cache"],
        ["core", "--k", "4", "act", "u1", "6,4,3,1"],
    ],
    ids=["kschur", "core"],
)
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_quietly(argv, unbuffered):
    # the read end is closed before the start, so every write fails: at the
    # print when stdout is unbuffered, else at the flush after main returns
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "from kschur.cli import run; run()", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_lr_command(capsys):
    code, out, _ = run_cli(
        capsys, "lr", "--k", "4", "--lambda", "2,2,2", "--mu", "1", "--nu", "2,2,2,1"
    )
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run_cli(
        capsys, "lr", "--k", "4", "--lambda", "2,2,2", "--mu", "1", "--nu", "2,2,2"
    )
    assert code == 0
    assert out.strip() == "0"  # size mismatch prints zero, not an error


def test_document_roundtrip_random():
    rng = random.Random(0)
    for _ in range(30):
        k = rng.randint(1, 4)
        terms = []
        for _ in range(rng.randint(0, 4)):
            word = [rng.randrange(k + 1) for _ in range(rng.randrange(7))]
            terms.append(
                (AffinePermutation.from_word(k, word), rng.randint(-5, 5) or 2)
            )
        elem = AlgebraElement(k, terms)
        doc = ExpansionDocument.from_element((1,), elem)
        parsed = ExpansionDocument.from_json(doc.to_json())
        assert parsed == doc
        assert parsed.to_element() == elem


def test_document_rejects_bad_word():
    doc = ExpansionDocument.from_element((1,), h(2, 1))
    data = doc.to_dict()
    data["terms"][0]["word"] = [0, 0, 1]
    with pytest.raises(ValueError):
        ExpansionDocument.from_dict(data)


@pytest.mark.parametrize("convert", [float, bool], ids=["float", "bool"])
@pytest.mark.parametrize(
    "path",
    [
        ("k",),
        ("index", 0),
        ("terms", 0, "window", 0),
        ("terms", 1, "window", 1),
        ("terms", 0, "word", 0),
        ("terms", 1, "word", 0),
        ("terms", 0, "coeff"),
    ],
    ids=lambda path: ".".join(map(str, path)),
)
def test_document_rejects_non_integer_values(path, convert):
    # k = 1: windows [0, 3] and [2, 1], words [0] and [1], coefficients 1,
    # so every int below has an equal float and an equal bool
    data = ExpansionDocument.from_element((1,), h(1, 1)).to_dict()
    *parents, last = path
    target = data
    for key in parents:
        target = target[key]
    value = convert(target[last])
    assert value == target[last]
    target[last] = value
    with pytest.raises(ValueError):
        ExpansionDocument.from_dict(data)


def test_document_rejects_a_zero_coefficient():
    data = ExpansionDocument.from_element((1,), h(2, 1)).to_dict()
    ExpansionDocument.from_dict(data)
    data["terms"][1]["coeff"] = 0
    with pytest.raises(ValueError, match="zero coefficient"):
        ExpansionDocument.from_dict(data)


@pytest.mark.parametrize(
    "reorder",
    [lambda terms: terms[::-1], lambda terms: [terms[0], terms[0]]],
    ids=["swapped", "repeated"],
)
def test_document_rejects_terms_out_of_window_order(reorder):
    data = ExpansionDocument.from_element((1,), h(2, 1)).to_dict()
    data["terms"] = reorder(data["terms"][:2])
    with pytest.raises(ValueError, match="does not follow"):
        ExpansionDocument.from_dict(data)


def test_document_rejects_non_integer_rectangle_index():
    data = ExpansionDocument.from_element(Rectangle(2, cols=1, rows=2), h(2, 1)).to_dict()
    for key, value in (("rows", 2.0), ("cols", True)):
        bad = dict(data, index=dict(data["index"], **{key: value}))
        with pytest.raises(ValueError):
            ExpansionDocument.from_dict(bad)


@pytest.mark.parametrize("index", [[2, -1], [1, 2], [0], [5], [2, 0]])
def test_document_rejects_an_index_that_is_not_a_bounded_partition(index):
    with pytest.raises(ValueError):
        ExpansionDocument.from_dict({"k": 3, "index": index, "terms": []})


def test_document_huge_k_costs_nothing():
    """A document's k is read before its windows; only a window of k + 1
    entries makes the reader build anything of size k."""
    empty = {"k": 1000000, "index": [], "terms": []}
    short = dict(empty, terms=[{"window": [1, 2], "word": [], "coeff": 1}])
    tracemalloc.start()
    try:
        doc = ExpansionDocument.from_json(json.dumps(empty))
        with pytest.raises(ValueError):
            ExpansionDocument.from_json(json.dumps(short))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc == ExpansionDocument(k=1000000, index=(), terms=())
    assert peak < 1 << 20
    with pytest.raises(ValueError):
        ExpansionDocument.from_dict(dict(empty, k=0))


def test_document_rectangle_index_roundtrip():
    elem = h(2, 1)
    doc = ExpansionDocument.from_element(Rectangle(2, cols=1, rows=2), elem)
    parsed = ExpansionDocument.from_json(doc.to_json())
    assert parsed.index == Rectangle(2, cols=1, rows=2)


# `--help` of the top level and of each subcommand, at 80 columns
HELP = {
    "": (
        "usage: kschur [-h] {kschur,rect,verify,core,lr} ...\n"
        "\n"
        "k-Schur functions in the standard basis of the affine nilCoxeter algebra, with\n"
        "closed formulas for maximal rectangles\n"
        "\n"
        "positional arguments:\n"
        "  {kschur,rect,verify,core,lr}\n"
        "    kschur              expand a k-Schur function\n"
        "    rect                closed formulas for a maximal rectangle\n"
        "    verify              run verification sweeps\n"
        "    core                core and bounded partition operations\n"
        "    lr                  a k-Littlewood-Richardson coefficient\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ),
    "kschur": (
        "usage: kschur kschur [-h] --k K [--format {text,json}] --partition PARTITION\n"
        "                     [--no-cache]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --k K\n"
        "  --format {text,json}\n"
        "  --partition PARTITION\n"
        "                        comma-separated parts; '' for empty\n"
        "  --no-cache            skip the persisted cache\n"
    ),
    "rect": (
        "usage: kschur rect [-h] --k K [--format {text,json}] --rows ROWS\n"
        "                   [--formula {x,y,z,w,all}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --k K\n"
        "  --format {text,json}\n"
        "  --rows ROWS\n"
        "  --formula {x,y,z,w,all}\n"
    ),
    "verify": (
        "usage: kschur verify [-h] --kmax KMAX [--suite {equiv,main,commute,pieri,all}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --kmax KMAX\n"
        "  --suite {equiv,main,commute,pieri,all}\n"
    ),
    "core": (
        "usage: kschur core [-h] --k K [--format {text,json}]\n"
        "                   {act,to-core,to-bounded,word} [args ...]\n"
        "\n"
        "positional arguments:\n"
        "  {act,to-core,to-bounded,word}\n"
        "  args\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --k K\n"
        "  --format {text,json}\n"
    ),
    "lr": (
        "usage: kschur lr [-h] --k K --lambda LAM --mu MU --nu NU\n"
        "\n"
        "options:\n"
        "  -h, --help    show this help message and exit\n"
        "  --k K\n"
        "  --lambda LAM\n"
        "  --mu MU\n"
        "  --nu NU\n"
    ),
}


@pytest.mark.parametrize("command", list(HELP))
def test_help_text(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("NO_COLOR", "1")
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"] if command else ["--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out == HELP[command]


def help_text(capsys, parse, argv):
    with pytest.raises(SystemExit) as exit_:
        parse(argv)
    assert exit_.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--help"], ["kschur", "--help"]], ids=["top", "kschur"])
def test_help_width_is_read_when_help_is_printed(capsys, monkeypatch, argv):
    # main's parser is built at import; a fresh one is the reference
    monkeypatch.setenv("NO_COLOR", "1")
    texts = []
    for columns in ("60", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        text = help_text(capsys, main, argv)
        assert text == help_text(capsys, cli.build_parser().parse_args, argv)
        texts.append(text)
    assert texts[0] != texts[1]


def test_one_parser_serves_every_call_without_leaking_state(capsys, tmp_path, monkeypatch):
    def no_new_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", no_new_parser)
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    kschur_argv = ("kschur", "--k", "3", "--partition", "2,1")
    cached = tmp_path / "3" / "2,1.json"

    code, out, _ = run_cli(capsys, *kschur_argv, "--format", "json", "--no-cache")
    assert code == 0 and not cached.exists()
    doc = ExpansionDocument.from_json(out)
    # neither --no-cache nor --format json carries into the next call
    assert run_cli(capsys, *kschur_argv) == (0, doc.to_text() + "\n", "")
    assert cached.read_text() == doc.to_json()

    # an argparse usage error leaves the parser fit for the next call
    with pytest.raises(SystemExit) as exit_:
        main(["rect", "--k", "4", "--rows", "3", "--format", "yaml"])
    assert exit_.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "rect", "--k", "4", "--rows", "3")
    assert (code, out.splitlines()[-1]) == (0, "equal: true")

    code, out, _ = run_cli(capsys, "verify", "--kmax", "1")
    assert code == 0 and json.loads(out)["passed"] is True
    assert run_cli(capsys, "core", "--k", "4", "act", "u1", "6,4,3,1", "--format", "json") == (
        0, '{"parts": [7, 4, 4, 1, 1]}\n', "",
    )
    assert run_cli(capsys, "core", "--k", "4", "act", "u1", "6,4,3,1") == (0, "7,4,4,1,1\n", "")
    lr_argv = ("lr", "--k", "4", "--lambda", "2,2,2", "--mu", "1", "--nu", "2,2,2,1")
    assert run_cli(capsys, *lr_argv) == (0, "1\n", "")


def test_the_import_compiles_every_pattern_a_parse_needs(monkeypatch):
    # re's cache evicts after 512 patterns, and other code may have filled
    # it with some of the parser's: empty it, then run the module's source
    # afresh, so that only the import itself fills it
    re.purge()
    spec = importlib.util.spec_from_file_location(cli.__name__, cli.__file__)
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)

    # what re calls on a cache miss; the spy records and still compiles,
    # and is gone before pytest's own hooks, which compile patterns too, run
    compiler = re._compiler if sys.version_info >= (3, 11) else re.sre_compile
    compile_pattern = compiler.compile
    recorded = []

    def spy(pattern, flags=0):
        recorded.append(pattern)
        return compile_pattern(pattern, flags)

    fmt = ("--format", "json")
    core_argvs = [
        ("core", "--k", "4", *order)
        for action, *args in (("act", "u1", "6,4,3,1"), ("to-core", "2,1"),
                              ("to-bounded", "3,1"), ("word", "2,1"))
        for order in ((action, *args), (*fmt, action, *args), (action, *args, *fmt))
    ]
    with monkeypatch.context() as patch:
        patch.setattr(compiler, "compile", spy)
        for argv in (
            ("kschur", "--k", "3", "--partition", "2,1"),
            ("kschur", "--k", "3", "--partition", "2,1", *fmt, "--no-cache"),
            ("rect", "--k", "4", "--rows", "3", "--formula", "x", *fmt),
            ("verify", "--kmax", "5", "--suite", "main"),
            *core_argvs,
            ("lr", "--k", "4", "--lambda", "2,2,2", "--mu", "1", "--nu", "2,2,2,1"),
        ):
            fresh._PARSER.parse_args(argv)
    assert recorded == []


def kschur_json(k, lam):
    return ExpansionDocument.from_element(lam, kschur(k, lam)).to_json()


def test_cache_hit_is_byte_identical(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    for fmt in ("json", "text"):
        for partition in ("2,2", ""):
            argv = ["kschur", "--k", "3", "--partition", partition, "--format", fmt]
            miss = run_cli(capsys, *argv)
            hit = run_cli(capsys, *argv)
            uncached = run_cli(capsys, *argv, "--no-cache")
            assert miss == hit == uncached
            assert miss[0] == 0 and miss[2] == ""
    cache = ExpansionCache(tmp_path)
    assert cache.file(3, (2, 2)) == tmp_path / "3" / "2,2.json"
    assert cache.file(3, ()) == tmp_path / "3" / "empty.json"
    assert cache.file(3, (2, 2)).read_text() == kschur_json(3, (2, 2))


def test_cache_corrupt_file_recomputes(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    path = ExpansionCache(tmp_path).file(2, (1,))
    path.parent.mkdir(parents=True)
    for garbage in (b"{not json", b"[]", b'{"k": 2, "index": [1]}', b"\xff"):
        path.write_bytes(garbage)
        code, out, err = run_cli(
            capsys, "kschur", "--k", "2", "--partition", "1", "--format", "json"
        )
        assert code == 0
        assert "warning: ignoring corrupt cache entry" in err
        assert out.strip() == kschur_json(2, (1,))
        # the recomputed document replaced the corrupt file
        assert path.read_text() == out.strip()


def test_cache_deeply_nested_file_recomputes(tmp_path, capsys, monkeypatch):
    """A file nested too deep for the JSON decoder is corrupt like any
    other unparsable file, not a RecursionError."""
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    path = ExpansionCache(tmp_path).file(3, (2, 1))
    path.parent.mkdir(parents=True)
    path.write_text("[" * 200_000 + "]" * 200_000)
    argv = ["kschur", "--k", "3", "--partition", "2,1"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (0, run_cli(capsys, *argv, "--no-cache")[1])
    (line,) = err.splitlines()
    assert line.startswith("warning: ignoring corrupt cache entry")


def test_cache_corrupt_entry_recomputes(tmp_path, capsys, monkeypatch):
    """Well-formed documents that are not the requested expansion."""
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    cache = ExpansionCache(tmp_path)
    lam = (2, 1)
    doc = ExpansionDocument.from_element(lam, kschur(3, lam))
    altered = doc.to_dict()
    (own,) = [t for t in altered["terms"] if t["window"] == list(w_of_partition(lam, 3).window)]
    own["coeff"] = 2
    # a term on the Grassmannian element of another partition of 3
    stray = doc.to_dict()
    w = w_of_partition((1, 1, 1), 3)
    stray["terms"].append({"window": list(w.window), "word": list(w.reduced_word()), "coeff": 1})
    stray["terms"].sort(key=lambda t: t["window"])
    # a term of degree 3 that is not Grassmannian, which the certificate
    # does not read; its Dynkin rotation u_2 u_3 u_0 is not in the file
    unrotated = doc.to_dict()
    w = AffinePermutation.from_word(3, (1, 2, 3))
    unrotated["terms"].append({"window": list(w.window), "word": [1, 2, 3], "coeff": 1})
    unrotated["terms"].sort(key=lambda t: t["window"])
    relabelled = dict(doc.to_dict(), index=[1, 1, 1])
    wrong_key = ExpansionDocument.from_element((1, 1, 1), kschur(3, (1, 1, 1))).to_dict()
    wrong_k = ExpansionDocument.from_element(lam, kschur(4, lam)).to_dict()
    # s_(2,1) at k = 4 plus 5 times the rotation orbit of a window of length
    # 3: five elements, none Grassmannian, so the rotation check and the
    # certificate pass, but σ (the Dynkin reflection of the inverse) moves it
    orbit = [AffinePermutation(4, rotated((-1, 2, 5, 3, 6), m)) for m in range(5)]
    grassmannian = {w_of_partition(nu, 4) for nu in k_bounded_partitions(3, 4)}
    assert len(set(orbit)) == 5 and not grassmannian & set(orbit)
    assert all(v.length() == 3 for v in orbit)
    stray_orbit = kschur(4, lam) + AlgebraElement(4, [(v, 5) for v in orbit])
    docs = {3: doc, 4: ExpansionDocument.from_element(lam, kschur(4, lam))}
    cases = [(3, data) for data in (altered, stray, unrotated, relabelled, wrong_key, wrong_k)]
    cases.append((4, ExpansionDocument.from_element(lam, stray_orbit).to_dict()))
    for k, data in cases:
        path = cache.file(k, lam)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data))
        assert cache.get(k, lam) is None
        assert "warning: ignoring corrupt cache entry" in capsys.readouterr().err
        code, out, err = run_cli(
            capsys, "kschur", "--k", str(k), "--partition", "2,1", "--format", "json"
        )
        assert (code, out.strip()) == (0, docs[k].to_json())
        assert len(err.splitlines()) == 1 and "corrupt" in err
        assert cache.get(k, lam) == docs[k]


def test_cache_term_of_another_degree_recomputes(tmp_path, capsys, monkeypatch):
    """s_(2,1) at k=4 plus 5 u_1: the certificate reads only the Grassmannian
    terms of degree 3, so the degree of every term is checked on its own."""
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    cache = ExpansionCache(tmp_path)
    lam = (2, 1)
    doc = ExpansionDocument.from_element(lam, kschur(4, lam))
    data = doc.to_dict()
    u1 = AffinePermutation.identity(4).right_mult(1)
    data["terms"].append({"window": list(u1.window), "word": [1], "coeff": 5})
    data["terms"].sort(key=lambda t: t["window"])
    assert len(data["terms"]) == 26
    path = cache.file(4, lam)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(data))
    assert cache.get(4, lam) is None
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("warning: ignoring corrupt cache entry")
    assert "not of degree 3" in line
    argv = ["kschur", "--k", "4", "--partition", "2,1", "--format", "json"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out.strip()) == (0, doc.to_json())
    assert len(err.splitlines()) == 1 and "corrupt" in err
    assert out == run_cli(capsys, *argv, "--no-cache")[1]
    assert cache.get(4, lam) == doc


def _far_term():
    """u(w) for a w of length 40,000 at k = 2, with its reduced word."""
    w = AffinePermutation(2, (-29_999, 2, 30_003))
    return {"window": list(w.window), "word": list(w.reduced_word()), "coeff": 1}


# (index, terms) of a file at the key (2, (2, 1)) whose warning echoes a huge input
HUGE_ENTRIES = {
    "unreduced word": lambda: ([2, 1], [{"window": [2, 1, 3], "word": [1] * 100_000, "coeff": 1}]),
    "word of another degree": lambda: ([2, 1], [_far_term()]),
    "another key": lambda: ([1] * 50_000, []),
}


@pytest.mark.parametrize("entry", list(HUGE_ENTRIES))
def test_cache_warning_echoes_a_huge_entry_clipped(tmp_path, capsys, entry):
    index, terms = HUGE_ENTRIES[entry]()
    cache = ExpansionCache(tmp_path)
    path = cache.file(2, (2, 1))
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"k": 2, "index": index, "terms": terms}))
    assert cache.get(2, (2, 1)) is None
    (line,) = capsys.readouterr().err.splitlines()
    head = f"warning: ignoring corrupt cache entry {path}: "
    assert line.startswith(head) and len(line) - len(head) < 300


def test_cache_rotation_is_the_dynkin_rotation_of_each_window():
    # the cache checks its terms with affine.rotated(window, 1)
    rng = random.Random(5)
    for k in range(1, 6):
        for _ in range(8):
            word = [rng.randrange(k + 1) for _ in range(rng.randrange(6))]
            window = AffinePermutation.from_word(k, word).window
            for m in range(-(k + 1), 2 * (k + 1) + 1):
                expected = AffinePermutation.from_word(k, rotate_word(word, m, k)).window
                assert rotated(window, m) == expected, (window, m)


def _disorder(swap):
    """Terms not strictly increasing by window, one repeated or the first
    two swapped, with a coefficient changed off the Grassmannian elements
    too, which the certificate does not read."""

    def corrupt(data):
        k, n = data["k"], sum(data["index"])
        grassmannian = {w_of_partition(nu, k).window for nu in k_bounded_partitions(n, k)}
        other = next(t for t in data["terms"] if tuple(t["window"]) not in grassmannian)
        other["coeff"] = 7
        terms = data["terms"]
        if swap:
            terms[0], terms[1] = terms[1], terms[0]
        else:
            terms.append(dict(terms[0]))

    return corrupt


def _floats_and_bools(data):
    """Integers become JSON floats or booleans, equal as Python values."""
    data["index"] = [2.0, True]
    for term in data["terms"]:
        term["coeff"] = True


def _bad_letter(letter):
    """A word letter outside 0..k: at k = 3 the letter -1 would swap the
    last two window entries, as the letter 3 does, if it indexed the window
    from its end, and 4 indexes past it."""

    def corrupt(data):
        term = next(t for t in data["terms"] if 3 in t["word"])
        term["word"] = [letter if i == 3 else i for i in term["word"]]

    return corrupt


def _huge_k(data):
    """A huge k, to be found before anything of size k is built."""
    data["k"] = 1_000_000


# (k, lam, corrupt) of a cached entry that is corrupt: corrupt edits the
# entry's parsed JSON in place
CORRUPT_ENTRIES = {
    "terms repeated": (4, (2, 2, 1), _disorder(swap=False)),
    "terms swapped": (4, (2, 2, 1), _disorder(swap=True)),
    "floats and bools": (3, (2, 1), _floats_and_bools),
    "letter -1": (3, (2, 1), _bad_letter(-1)),
    "letter 4": (3, (2, 1), _bad_letter(4)),
    "huge k": (3, (2, 1), _huge_k),
}


@pytest.mark.parametrize("entry", list(CORRUPT_ENTRIES))
def test_corrupt_cache_entry_recomputes(tmp_path, capsys, monkeypatch, entry):
    """A corrupt cached entry costs one warning, not the result: the run
    prints the uncached bytes, rewrites the entry, and reads the bad file
    in under 1 MiB."""
    k, lam, corrupt = CORRUPT_ENTRIES[entry]
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(tmp_path))
    argv = ["kschur", "--k", str(k), "--partition", ",".join(map(str, lam)), "--format", "json"]
    code, uncached, _ = run_cli(capsys, *argv, "--no-cache")
    assert code == 0
    run_cli(capsys, *argv)
    path = ExpansionCache(tmp_path).file(k, lam)
    data = json.loads(path.read_text())
    corrupt(data)
    path.write_text(json.dumps(data))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, uncached)
    assert peak < 1 << 20
    (line,) = err.splitlines()
    assert line.startswith("warning: ignoring corrupt cache entry")
    assert path.read_text() == uncached.strip()


def test_cache_unwritable_directory_warns(tmp_path, capsys, monkeypatch):
    """The cache is advisory: a cache path that is a regular file costs
    one warning, not the result."""
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    monkeypatch.setenv("KSCHUR_CACHE_DIR", str(not_a_dir))
    for fmt in ("json", "text"):
        argv = ["kschur", "--k", "3", "--partition", "2,1", "--format", fmt]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == run_cli(capsys, *argv, "--no-cache")[:2]
        assert code == 0
        (line,) = err.splitlines()
        assert line.startswith("warning: cannot write cache entry")
    assert not_a_dir.read_text() == ""


def test_cache_failed_rename_leaves_nothing_behind(tmp_path, capsys, monkeypatch):
    """A put whose rename fails warns once and removes its temp file, so
    the key's directory holds neither a temp file nor an entry."""

    def refuse(src, dst):
        raise OSError("rename refused")

    cache = ExpansionCache(tmp_path)
    doc = ExpansionDocument.from_element((2, 1), kschur(3, (2, 1)))
    monkeypatch.setattr("kschur.cache.os.replace", refuse)
    cache.put(doc)
    monkeypatch.undo()
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("warning: cannot write cache entry")
    assert list((tmp_path / "3").iterdir()) == []
    assert cache.get(3, (2, 1)) is None
    assert capsys.readouterr().err == ""


def test_cache_atomic_write_preserves_other_keys(tmp_path, capsys):
    cache = ExpansionCache(tmp_path)
    # a cache file of the former single-file layout is not read
    (tmp_path / "expansions.json").write_text("{not json")
    docs = [ExpansionDocument.from_element(lam, kschur(2, lam)) for lam in [(1,), (2, 1), ()]]
    for doc in docs:
        assert cache.get(2, doc.index) is None
        cache.put(doc)
    for doc in docs:
        assert cache.get(2, doc.index) == doc
    assert capsys.readouterr().err == ""
    names = sorted(p.name for p in (tmp_path / "2").iterdir())
    assert names == ["1.json", "2,1.json", "empty.json"]


WRITER = """
import sys
from kschur.cli import main

for key in sys.argv[1:]:
    k, partition = key.split(":")
    main(["kschur", "--k", k, "--partition", partition, "--format", "json"])
"""


def test_cache_concurrent_writers_keep_every_key(tmp_path):
    """Three processes fill one cache directory with distinct keys at once;
    a put that rewrote a shared file would drop the others' entries."""
    keys = [
        (k, lam) for k in range(1, 5) for n in range(5) for lam in k_bounded_partitions(n, k)
    ]
    env = dict(os.environ, KSCHUR_CACHE_DIR=str(tmp_path))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    writers = [
        subprocess.Popen(
            [sys.executable, "-c", WRITER]
            + [f"{k}:{','.join(map(str, lam))}" for k, lam in keys[start::3]],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        for start in range(3)
    ]
    for writer in writers:
        _, err = writer.communicate(timeout=120)
        assert writer.returncode == 0, err
    cache = ExpansionCache(tmp_path)
    lost = [(k, lam) for k, lam in keys if cache.get(k, lam) is None]
    assert lost == []
    assert all(cache.get(k, lam).to_json() == kschur_json(k, lam) for k, lam in keys)

"""Mutation probe: which checks under src/kschur does no tier-1 test tell apart?

A mutant is the tree with one statement under src/kschur replaced by
`pass`: a `raise` (kind "raise") or a statement that calls `certify(...)`
(kind "certify").  A mutant survives when the tier-1 suite still passes
on it, so no test notices that its check is gone.

    python tools/mutants.py

It takes no options and never edits the checkout: it works on a
temporary copy, in which every module under src/kschur is rewritten by
`ast.unparse`, so that each mutant differs from that copy in one
statement.  The unmutated copy must pass first.  Then each mutant runs
the suite with `-x`, and the probe prints one JSON line per mutant (file,
line in the checkout, kind, survived) and a count on stderr; it exits 1
if any mutant survived.  71 mutants took about six minutes on a 2-vCPU
machine.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "kschur")
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors"]


def sites(tree: ast.Module) -> list[tuple[ast.stmt, str]]:
    """The statements a mutant takes out, with their kind, in line order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            found.append((node, "raise"))
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            if isinstance(node.value.func, ast.Name) and node.value.func.id == "certify":
                found.append((node, "certify"))
    return sorted(found, key=lambda site: (site[0].lineno, site[0].col_offset))


def without(tree: ast.Module, target: ast.stmt) -> str:
    """The module's source with the statement target replaced by pass."""
    for parent in ast.walk(tree):
        for _, body in ast.iter_fields(parent):
            for i, stmt in enumerate(body if isinstance(body, list) else ()):
                if stmt is target:
                    body[i] = ast.Pass()
                    return ast.unparse(tree)
    raise LookupError(f"statement at line {target.lineno} not found")


def passes(tree: Path, timeout: float) -> bool:
    """True iff the tier-1 suite passes in tree; a run past timeout fails."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    # a mutant rewrites a module within the second, maybe at the same size,
    # which a cached .pyc would not notice
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    try:
        run = subprocess.run(
            TIER1, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch, "tree")
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".*_cache", ".bench*"))
        modules = sorted((tree / PACKAGE).glob("*.py"))
        sources = {path: path.read_text() for path in modules}
        for path, source in sources.items():
            path.write_text(ast.unparse(ast.parse(source)))
        if not passes(tree, timeout=3600):
            print("the unmutated tree fails tier-1", file=sys.stderr)
            return 2
        timeout = 5 * (time.perf_counter() - start) + 60
        survivors = total = 0
        for path, source in sources.items():
            unparsed = path.read_text()
            for index, (node, kind) in enumerate(sites(ast.parse(source))):
                # parse again, so that each mutant starts from the whole module
                fresh = ast.parse(source)
                path.write_text(without(fresh, sites(fresh)[index][0]))
                survived = passes(tree, timeout)
                path.write_text(unparsed)
                total += 1
                survivors += survived
                line = {"file": str(path.relative_to(tree)), "line": node.lineno, "kind": kind, "survived": survived}
                print(json.dumps(line), flush=True)
    print(f"{total} mutants, {survivors} survived, {time.perf_counter() - start:.0f} s", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

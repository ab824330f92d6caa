"""Persisted cache of computed k-Schur expansions.

One expansion document per key (k, λ), in the schema of `--format json`,
at <dir>/<k>/<comma-separated parts, or "empty">.json, where <dir> is
$KSCHUR_CACHE_DIR or ~/.cache/kschur.  A put writes a temp file and
renames it into place, so it touches only its own key.  The cache is
advisory: a file that does not parse, holds another key, holds a term whose
reduced word is not of length |λ|, is not fixed by the Dynkin rotation
u_i -> u_{i+1} (`affine.rotated`) or by σ, the Dynkin reflection
u_i -> u_{-i} of the reversed word (`affine.reflected` of the inverse),
both of which fix every h_i and so every s_λ, or fails the certificate
(coefficient δ_{λν} on every Grassmannian w_ν with |ν| = |λ|) is ignored
with a warning on stderr and recomputed, and a put that cannot write
(say, the directory is a regular file) only warns.

Not caught: a stray sum of whole dihedral orbits (under the rotation and
σ) of degree |λ| on elements that are not Grassmannian, one coefficient
for each orbit.  Only the identity is fixed by the rotation, so a single
stray term is caught; but the certificate reads only the Grassmannian
coefficients, and it proves the document is s_λ only for an element of
the subring the h's generate, which a file cannot be shown to lie in.
"""

from __future__ import annotations

import contextlib
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence

from .affine import inverted, reflected, rotated
from .documents import ExpansionDocument
from .nilcoxeter import certify
from .reports import IdentityError

ENV_VAR = "KSCHUR_CACHE_DIR"


class ExpansionCache:
    def __init__(self, path: Optional[Path] = None):
        root = path if path is not None else os.environ.get(ENV_VAR)
        self.path = Path(root) if root else Path.home() / ".cache" / "kschur"

    def file(self, k: int, lam: Sequence[int]) -> Path:
        return self.path / str(k) / f"{','.join(map(str, lam)) or 'empty'}.json"

    def get(self, k: int, lam: Sequence[int]) -> Optional[ExpansionDocument]:
        """The cached document of (k, lam), or None on a miss."""
        lam = tuple(lam)
        path = self.file(k, lam)
        try:
            doc = ExpansionDocument.from_json(path.read_text())
            if doc.k != k or doc.index != lam:
                raise ValueError(f"holds the document of k={doc.k} index {doc.index}")
            # the reader proved each word reduced for its window
            if stray := [t.word for t in doc.terms if len(t.word) != sum(lam)]:
                raise ValueError(f"the term of word {stray[0]} is not of degree {sum(lam)}")
            terms = {t.window: t.coeff for t in doc.terms}
            if {rotated(w, 1): c for w, c in terms.items()} != terms:
                raise ValueError("the terms are not fixed by the Dynkin rotation")
            if {reflected(inverted(w)): c for w, c in terms.items()} != terms:
                raise ValueError("the terms are not fixed by the Dynkin reflection of the inverse")
            certify(k, lam, terms)
        except (FileNotFoundError, NotADirectoryError):
            return None
        except (OSError, KeyError, TypeError, ValueError, RecursionError, IdentityError) as exc:
            print(f"warning: ignoring corrupt cache entry {path}: {exc}", file=sys.stderr)
            return None
        return doc

    def put(self, doc: ExpansionDocument) -> None:
        """Write the document of its key; a failure is only a warning."""
        path = self.file(doc.k, doc.index)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(doc.to_json())
                os.replace(tmp, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        except OSError as exc:
            print(f"warning: cannot write cache entry {path}: {exc}", file=sys.stderr)

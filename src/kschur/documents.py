"""JSON documents for algebra element expansions.

Schema (stable):
    {"k": int,
     "index": [int, ...] | {"rows": int, "cols": int},
     "terms": [{"window": [int, ...], "word": [int, ...], "coeff": int}, ...]}

Terms are strictly increasing by window, lexicographically, which the
reader checks, so no window repeats.  The window is the authoritative
key; the word is carried for readability and must be a reduced word for
it, which the reader checks by folding the word from the identity once
the window has k + 1 entries, so a huge k costs nothing.  Every value
the schema types as int must be a JSON integer: floats and booleans are
rejected by `affine._ints`.  A list index must be a k-bounded partition as
written (`cores.as_bounded` returns it unchanged): positive, weakly
decreasing parts of at most k, with no trailing zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Union

from .affine import AffinePermutation, _check_rank, _ints, clip, fold_reduced
from .cores import as_bounded
from .nilcoxeter import AlgebraElement
from .rectangles import Rectangle

Index = Union[tuple[int, ...], Rectangle]


@dataclass(frozen=True)
class Term:
    window: tuple[int, ...]
    word: tuple[int, ...]
    coeff: int


@dataclass(frozen=True)
class ExpansionDocument:
    k: int
    index: Index
    terms: tuple[Term, ...]

    @classmethod
    def from_element(cls, index: Index, element: AlgebraElement) -> "ExpansionDocument":
        # the words the element keeps, in items() order (see `_words`)
        terms = tuple(
            Term(window=w.window, word=word, coeff=c)
            for (w, c), (word, _) in zip(element.items(), element._words())
        )
        return cls(k=element.k, index=index, terms=terms)

    def to_element(self) -> AlgebraElement:
        return AlgebraElement(
            self.k,
            [(AffinePermutation(self.k, t.window), t.coeff) for t in self.terms],
        )

    def to_dict(self) -> dict:
        if isinstance(self.index, Rectangle):
            index = {"rows": self.index.rows, "cols": self.index.cols}
        else:
            index = list(self.index)
        return {
            "k": self.k,
            "index": index,
            "terms": [
                {"window": list(t.window), "word": list(t.word), "coeff": t.coeff}
                for t in self.terms
            ],
        }

    def to_json(self) -> str:
        """The document as compact JSON with sorted keys, encoded on the
        first call only: every later reader of this document, say the
        cache's put and then the print of a miss, gets the same text."""
        return self._json

    @cached_property
    def _json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "ExpansionDocument":
        k = data["k"]
        _check_rank(k)
        raw_index = data["index"]
        if isinstance(raw_index, dict):
            index: Index = Rectangle(k, cols=raw_index["cols"], rows=raw_index["rows"])
        else:
            index = as_bounded(raw_index, k)
            if index != tuple(raw_index):
                raise ValueError(f"index {clip(list(raw_index))} has a zero part")
        terms = []
        for t in data["terms"]:
            window = _ints(t["window"], "window entries")
            if len(window) != k + 1:
                raise ValueError(f"window needs {k + 1} entries, got {len(window)}")
            if terms and window <= terms[-1].window:
                raise ValueError(f"window {clip(window)} does not follow the window before it")
            word = _ints(t["word"], "word letters")
            (coeff,) = _ints((t["coeff"],), "coefficients")
            if coeff == 0:
                raise ValueError("zero coefficient in document")
            win = list(range(1, k + 2))
            if not fold_reduced(win, word) or tuple(win) != window:
                raise ValueError(f"word {clip(word)} is not reduced for window {clip(window)}")
            terms.append(Term(window=window, word=word, coeff=coeff))
        return cls(k=k, index=index, terms=tuple(terms))

    @classmethod
    def from_json(cls, text: str) -> "ExpansionDocument":
        return cls.from_dict(json.loads(text))

    def to_text(self) -> str:
        if isinstance(self.index, Rectangle):
            head = f"k={self.k} rectangle cols={self.index.cols} rows={self.index.rows}"
        else:
            head = f"k={self.k} partition=({','.join(map(str, self.index))})"
        lines = [f"{head} terms={len(self.terms)}"]
        for t in self.terms:
            word = " ".join(f"u{i}" for i in t.word) or "1"
            window = ",".join(map(str, t.window))
            lines.append(f"{t.coeff:+d}  {word}  window=[{window}]")
        return "\n".join(lines)

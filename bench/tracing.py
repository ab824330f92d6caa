"""Per-layer tracing of the kschur library from outside it.

`Tracer.install` wraps the public functions and methods of each module
and rebinds every name that refers to them, at every import site in the
package (for example `nilcoxeter` binds `w_of_partition` from `cores`).
Functions whose calls are long enough to time record a span (name,
start, end, parent); the rest, mostly window operations in `affine`,
only count calls, because timing each one would cost more than the
call.  Spans stay in memory; the benchmark collects them from each
request and writes them out when it ends.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter
from typing import Callable, Optional

_now = time.perf_counter

# calls timed as spans: (module, function)
SPANNED_FUNCTIONS = (
    ("nilcoxeter", "kschur"),
    ("nilcoxeter", "h_product"),
    ("nilcoxeter", "act_on_core"),
    ("nilcoxeter", "pieri_partitions"),
    ("nilcoxeter", "lr_coefficient"),
    ("cores", "apply_word_nil"),
    ("alcoves", "pseudo_translation"),
    ("rectangles", "by_readings"),
    ("rectangles", "by_translations"),
    ("rectangles", "by_columns"),
    ("rectangles", "by_windows"),
    ("rectangles", "act_on_partition"),
    ("cli", "main"),
)
# calls only counted: (module, function)
COUNTED_FUNCTIONS = (
    ("cores", "w_of_partition"),
    ("cores", "bounded_to_core"),
    ("cores", "u_action"),
    ("cores", "core_to_bounded"),
    ("alcoves", "reflect"),
    ("alcoves", "act"),
)
# AffinePermutation methods only counted: method -> counter
COUNTED_WINDOW_METHODS = {
    "__post_init__": "affine.windows_built",  # every window built is validated
    "__hash__": "affine.hashes",
    "right_mult": "affine.right_mult.calls",
    "left_mult": "affine.left_mult.calls",
    "inverse": "affine.inverse.calls",
    "length": "affine.length.calls",
}
# AlgebraElement methods timed as the "nilcoxeter.add" span
ADDITIVE_METHODS = ("__add__", "__sub__", "__neg__", "__rmul__")


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[int] = []
        # > 0 while AlgebraElement.__mul__ folds letters; 0 inside reduced_word
        self._folding = 0

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap fn so each call counts as name.calls and records a span;
        after(args, result) may add counters once the call returned."""
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            index = len(spans)
            spans.append([name, _now(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = _now()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def count(self, counter: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the library modules already imported under `kschur`."""
        from kschur import affine, cache, documents, nilcoxeter

        package = [m for name, m in sys.modules.items() if name == "kschur" or name.startswith("kschur.")]
        counts = self.counts

        def rebind(module: str, function: str, make: Callable) -> None:
            original = getattr(sys.modules["kschur." + module], function)
            wrapped = make(original)
            # module globals, and values of module-level tables such as
            # the formula table of `cli`
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                    elif isinstance(value, dict):
                        for key, entry in value.items():
                            if entry is original:
                                value[key] = wrapped

        for module, function in SPANNED_FUNCTIONS:
            after = self._h_product_terms if function == "h_product" else None
            rebind(module, function, lambda fn, n=f"{module}.{function}", a=after: self.span(n, fn, a))
        for module, function in COUNTED_FUNCTIONS:
            rebind(module, function, lambda fn, n=f"{module}.{function}.calls": self.count(n, fn))

        perm = affine.AffinePermutation
        for method, counter in COUNTED_WINDOW_METHODS.items():
            setattr(perm, method, self.count(counter, getattr(perm, method)))
        perm.reduced_word = self.count("affine.reduced_word.calls", self._unfolding(perm.reduced_word))
        has_right_descent = perm.has_right_descent

        def descent(w, i):
            # inside the letter fold of __mul__ a descent kills the pair
            found = has_right_descent(w, i)
            if found and self._folding:
                counts["nilcoxeter.mul.dead_pairs"] += 1
            return found

        perm.has_right_descent = descent

        element = nilcoxeter.AlgebraElement
        element.__mul__ = self.span("nilcoxeter.mul", self._folding_mul(element.__mul__), self._mul_pairs)
        for method in ADDITIVE_METHODS:
            setattr(element, method, self.span("nilcoxeter.add", getattr(element, method)))

        doc = documents.ExpansionDocument
        from_element = vars(doc)["from_element"].__func__
        doc.from_element = classmethod(self.span("documents.from_element", from_element, self._doc_terms))

        store = cache.ExpansionCache
        store.get = self.span("cache.get", store.get, self._cache_read)
        store.put = self.span("cache.put", store.put, self._cache_written)

    def _unfolding(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            saved, self._folding = self._folding, 0
            try:
                return fn(*args, **kwargs)
            finally:
                self._folding = saved

        return wrapper

    def _folding_mul(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._folding += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._folding -= 1

        return wrapper

    def _h_product_terms(self, args, result) -> None:
        self.counts["nilcoxeter.h_product.terms"] += len(result)

    def _mul_pairs(self, args, result) -> None:
        left, right = args
        if hasattr(right, "_terms"):
            self.counts["nilcoxeter.mul.pairs"] += len(left) * len(right)

    def _doc_terms(self, args, result) -> None:
        self.counts["documents.terms"] += len(result.terms)

    def _cache_read(self, args, result) -> None:
        self.counts["cache.bytes_read"] += _size(args[0].path)
        self.counts["cache.hits"] += result is not None

    def _cache_written(self, args, result) -> None:
        self.counts["cache.bytes_written"] += _size(args[0].path)


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def self_times(spans: list[list]) -> Counter:
    """Self seconds per span name: duration minus the child spans' durations.

    Spans come from one thread and nest, so a span's children are disjoint
    and lie inside it; their durations sum to the time they cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: Counter = Counter()
    for (name, start, end, parent), covered in zip(spans, child_time):
        out[name] += end - start - covered
    return out

"""Spans around the public functions of each spincover module.

The tracer replaces a function at every place it is looked up (the defining
module and each module that imported the name), records one span per call
(name, start, end, parent span) in memory and puts the originals back on
restore. Nothing here is imported by the library; the wrappers exist only
while a traced phase runs.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable

_MARK = "__perfbench_wrapper__"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._render_depth = 0

    # -- span recording -------------------------------------------------------

    def timed(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1:3] = start, end

        return wrapper

    def _minors(self, fn: Callable) -> Callable:
        per_k: dict[int, Callable] = {}

        def wrapper(matrix, k, *args, **kwargs):
            if k not in per_k:
                per_k[k] = self.timed(f"matrix_group.batched_minors.k{k}", fn)
            subsets, dets = per_k[k](matrix, k, *args, **kwargs)
            self.counts["matrix_group.minors_computed"] += dets.size
            return subsets, dets

        return wrapper

    def _candidates(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts["covering.candidates_assembled"] += 1
                yield item

        return wrapper

    def _outermost(self, name: str, fn: Callable) -> Callable:
        timed = self.timed(name, fn)

        def wrapper(*args, **kwargs):
            if self._render_depth:
                return fn(*args, **kwargs)
            self._render_depth += 1
            try:
                return timed(*args, **kwargs)
            finally:
                self._render_depth -= 1

        return wrapper

    def _table_builds(self, fn: Callable) -> Callable:
        # Only cache misses are builds; hits are left to the caller's self time.
        def wrapper(p, q):
            misses = fn.cache_info().misses
            start = perf_counter()
            table = fn(p, q)
            end = perf_counter()
            if fn.cache_info().misses > misses:
                self.spans.append(["clifford_core.sign_table.build", start, end,
                                   self._stack[-1] if self._stack else -1])
                self.counts["clifford_core.sign_table.bytes"] += 4 ** (p + q)
            return table

        return wrapper

    # -- patching -------------------------------------------------------------

    def _factories(self) -> list[tuple[str, str, Callable[[Callable], Callable]]]:
        def span(name: str) -> Callable[[Callable], Callable]:
            return lambda fn: self.timed(name, fn)

        return [
            ("clifford_core", "geometric_product", span("clifford_core.geometric_product")),
            ("clifford_core", "_sign_table", self._table_builds),
            ("matrix_group", "check_membership", span("matrix_group.check_membership")),
            ("matrix_group", "batched_minors", self._minors),
            ("covering", "iter_candidates", self._candidates),
            ("covering", "select_candidate", span("covering.select_candidate")),
            ("covering", "matrix_to_rotor", span("covering.matrix_to_rotor")),
            ("covering", "forward_map", span("covering.forward_map")),
            ("division_algebras", "select_quaternion_candidate",
             span("division_algebras.select_quaternion_candidate")),
            ("division_algebras", "select_split_candidate", span("division_algebras.select_split_candidate")),
            ("oracle", "verify_covering", span("oracle.verify_covering")),
            ("cli", "main", span("cli.main")),
            ("cli", "render_json", lambda fn: self._outermost("cli.render_json", fn)),
        ]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, attr, factory in self._factories():
            home = importlib.import_module(f"spincover.{module}")
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = factory(original)
            setattr(wrapper, _MARK, True)
            for site in _package_modules():
                if getattr(site, attr, None) is original:
                    setattr(site, attr, wrapper)
                    self._patches.append((site, attr, original))

    def restore(self) -> None:
        for site, attr, original in reversed(self._patches):
            setattr(site, attr, original)
        for site, attr, original in self._patches:
            if getattr(site, attr) is not original:
                raise RuntimeError(f"{site.__name__}.{attr} was not restored")
        self._patches = []

    def write(self, path: str, phases: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        doc = {"fields": ["name", "start", "end", "parent"], "names": names, "phases": phases,
               "spans": [[index[n], s, e, p] for n, s, e, p in self.spans]}
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(doc, handle)


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if m is not None and name.split(".")[0] == "spincover"]


def require_untraced() -> None:
    """Raise if any spincover name is still bound to a tracer wrapper."""
    for site in _package_modules():
        for attr, value in vars(site).items():
            if getattr(value, _MARK, False):
                raise RuntimeError(f"{site.__name__}.{attr} is still traced")


def layer_totals(spans: list[list], first: int, last: int) -> dict[str, list]:
    """name -> [calls, self seconds] over spans[first:last].

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child = defaultdict(float)
    for name, start, end, parent in spans[first:last]:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for i in range(first, last):
        name, start, end, _ = spans[i]
        entry = totals[name]
        entry[0] += 1
        entry[1] += end - start - child[i]
    return totals

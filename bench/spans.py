"""Spans around the program's layer boundaries, recorded from outside it.

The tracer wraps the public functions in ``TARGETS`` in every ``degreelab``
module namespace that holds them (so ``search.check_le`` and
``doctrines.check_le`` are both traced) and the suite functions in
``laws.SUITES``.  Each call opens a span (group, start, end, parent span);
spans are folded into per-group totals as they close, so memory stays flat
however many calls a run makes:

* a group's calls and seconds count its outermost spans only, so a call that
  re-enters the same group (``enumerate_computable`` calling
  ``enumerate_sk`` calling ``enumerate_over``) is one call;
* self time is span time minus the time of the spans opened inside it.

Wrappers re-raise every exception unchanged: ``CheckError`` is control flow
inside ``search``.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import time
from collections import Counter, defaultdict

# (defining module, function, group)
TARGETS = [
    ("degreelab.terms", "enumerate_over", "enumerate"),
    ("degreelab.terms", "enumerate_sk", "enumerate"),
    ("degreelab.pca", "enumerate_computable", "enumerate"),
    ("degreelab.terms", "to_text", "to_text"),
    ("degreelab.pca", "normalize", "normalize"),
    ("degreelab.doctrines", "check_le", "check_le"),
    ("degreelab.doctrines", "find_inner_witness", "find_inner_witness"),
    ("degreelab.completions", "comp_le", "comp_le"),
    ("degreelab.search", "search_witness", "search"),
    ("degreelab.search", "search_completion_witness", "search"),
    ("degreelab.search", "forward_map_candidates", "forward_map"),
    ("degreelab.instance", "parse_instance", "parse"),
    ("degreelab.instance", "format_witness", "format"),
    ("degreelab.instance", "print_instance", "format"),
    ("degreelab.cli", "main", "cli"),
]

# The property suites behind `degreelab laws`, in the program's order.
SUITES = [
    "pca-laws", "bracket-abstraction", "pairing", "medvedev-coheyting", "muchnik-heyting",
    "adjoint-suites", "beck-chevalley", "isomorphism-suites", "extsw-dialectica", "extasm-category",
]

# Doctrine ids some workload exercises (none reaches classicalW or classicalSW).
DOCTRINES = ["T", "Tw", "M", "Mw", "dW", "dsW", "drW", "dextW", "W", "SW", "rW", "tW", "extsW", "D"]


def _status(verdict) -> str:
    """A verdict's status; "error" when the call raised (CheckError)."""
    return "error" if verdict is None else verdict.status


class CoverageError(RuntimeError):
    """A function the tracer must wrap is missing from the program."""


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [group, seconds of child spans]
        self.depth: Counter = Counter()  # open spans per group
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.doc_seconds: defaultdict = defaultdict(float)
        self.doc_calls: Counter = Counter()
        self._patched: list = []
        self._gc_start = 0.0

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, group: str, after=None):
        stack, depth, calls = self.stack, self.depth, self.calls
        seconds, self_seconds, clock = self.seconds, self.self_seconds, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [group, 0.0]
            stack.append(frame)
            outer = depth[group] == 0
            depth[group] += 1
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                elapsed = clock() - start
                depth[group] -= 1
                stack.pop()
                self_seconds[group] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if outer:
                    calls[group] += 1
                    seconds[group] += elapsed
                    if after is not None:
                        after(parent, args, result, exc, elapsed)

        return wrapper

    def _after_enumerate(self, parent, args, result, exc, elapsed):
        if result is not None:
            self.counts["enumerated_terms"] += len(result)

    def _after_normalize(self, parent, args, result, exc, elapsed):
        if result is not None and result.status in ("timeout", "undefined"):
            self.counts[result.status] += 1

    def _after_check(self, parent, args, result, exc, elapsed):
        doc = args[1] if len(args) > 1 else None
        self.doc_calls[doc] += 1
        self.doc_seconds[doc] += elapsed
        self.counts[f"verdicts.{_status(result)}"] += 1
        self._candidate(parent, result)

    def _after_comp(self, parent, args, result, exc, elapsed):
        self._candidate(parent, result)

    def _candidate(self, parent, result):
        """A check_le or comp_le call made directly by a search is one candidate."""
        if parent == "search":
            self.counts["candidates"] += 1
            self.counts[f"candidates.{_status(result)}"] += 1

    def _after_search(self, parent, args, result, exc, elapsed):
        if result is not None and result.status == "found":
            self.counts["found"] += 1

    def install(self) -> None:
        """Wrap every target in every namespace that holds it, and time GC."""
        for name in ("degreelab.cli", "degreelab.laws", "degreelab.isomorphisms"):
            importlib.import_module(name)
        hooks = {"enumerate": self._after_enumerate, "normalize": self._after_normalize,
                 "check_le": self._after_check, "comp_le": self._after_comp,
                 "search": self._after_search}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "degreelab" or n.startswith("degreelab."))]
        for modname, fname, group in TARGETS:
            owner = sys.modules[modname]
            if not callable(getattr(owner, fname, None)):
                raise CoverageError(f"{modname}.{fname} is missing; the trace would report 0 for it")
            original = getattr(owner, fname)
            wrapper = self._wrap(original, group, hooks.get(group))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))
        suites = sys.modules["degreelab.laws"].SUITES
        missing = [s for s in SUITES if s not in suites]
        if missing:
            raise CoverageError(f"laws.SUITES lacks {missing}")
        for s in SUITES:
            original = suites[s]
            suites[s] = self._wrap(original, f"suite:{s}")
            self._patched.append((suites, s, original))
        gc.callbacks.append(self._gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._gc)
        for target, attr, original in reversed(self._patched):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patched.clear()

    def _gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.counts["gc.collections"] += 1
            self.counts["gc.pause_s"] += time.perf_counter() - self._gc_start

    # -- report ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics by name (values only; units live in BENCHMARK.json)."""
        c, calls, sec = self.counts, self.calls, self.seconds
        candidates = c["candidates"]
        out = {
            "terms.enumerate_calls": calls["enumerate"],
            "terms.enumerated_terms": c["enumerated_terms"],
            "terms.enumerate_s": sec["enumerate"],
            "terms.to_text_calls": calls["to_text"],
            "terms.to_text_s": sec["to_text"],
            "pca.normalize_calls": calls["normalize"],
            "pca.normalize_s": sec["normalize"],
            "pca.timeouts": c["timeout"],
            "pca.undefined": c["undefined"],
            "doctrines.check_le_calls": calls["check_le"],
            "doctrines.check_le_s": sec["check_le"],
        }
        for doc in DOCTRINES:
            n = self.doc_calls[doc]
            out[f"doctrines.check_le_us.{doc}"] = 1e6 * self.doc_seconds[doc] / n if n else 0.0
        out.update({
            "doctrines.verdicts.holds": c["verdicts.holds"],
            "doctrines.verdicts.refuted": c["verdicts.refuted"],
            "doctrines.verdicts.unknown": c["verdicts.unknown"],
            "doctrines.check_errors": c["verdicts.error"],
            "doctrines.find_inner_witness_calls": calls["find_inner_witness"],
            "doctrines.find_inner_witness_s": sec["find_inner_witness"],
            "completions.comp_le_calls": calls["comp_le"],
            "completions.comp_le_s": sec["comp_le"],
            "search.searches": calls["search"],
            "search.search_s": sec["search"],
            "search.candidates": candidates,
            "search.candidates.refuted": c["candidates.refuted"],
            "search.candidates.timed_out": c["candidates.unknown"],
            "search.candidates.malformed": c["candidates.error"],
            "search.candidates_per_s": candidates / sec["search"] if sec["search"] else 0.0,
            "search.found_ratio": c["found"] / candidates if candidates else 0.0,
            "search.forward_map_calls": calls["forward_map"],
            "search.forward_map_s": sec["forward_map"],
            "instance.parse_calls": calls["parse"],
            "instance.parse_s": sec["parse"],
            "instance.format_s": sec["format"],
        })
        for s in SUITES:
            out[f"laws.suite_s.{s}"] = sec[f"suite:{s}"]
        out["cli.self_s"] = self.self_seconds["cli"]
        out["gc.collections"] = c["gc.collections"]
        out["gc.pause_s"] = c["gc.pause_s"]
        return out

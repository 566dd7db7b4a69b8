"""Spans and counts recorded around calls into frobtab, from outside the package.

The tracer wraps public functions and methods of the ``frobtab`` modules.  It
rebinds every module attribute of the package that holds the original
object, so calls made through ``from .module import name`` bindings are seen
too.  Spans (name, start, end, parent) are kept in memory and written out
once, after the pass.  A layer's self time is its span time minus the time
of the spans it caused.

Cache sizes are read from private names.  When a later version of frobtab no
longer has one of those names, the metric reads 0 and is listed as absent;
the run does not fail.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, function) wrapped in a span named "module.function".
SPANNED = (
    ("characters", "ideal_power_span"),
    ("characters", "subquotient_character"),
    ("characters", "verify_triple"),
    ("characters", "in_ideal_power"),
    ("symfunc", "expected_character"),
    ("standard_monomials", "basis_index_set"),
    ("standard_monomials", "standard_monomial"),
    ("standard_monomials", "is_two_straight"),
    ("straightening", "two_straighten"),
    ("tableaux", "enumerate_tableaux"),
)

# (module, class, method) whose calls are counted, without a span.
COUNTED = (
    ("linalg_gf2", "EchelonBasis", "add"),
    ("gf2_exterior", "ExtElement", "__init__"),
    ("symfunc", "SymPoly", "__mul__"),
)

# Per-layer metrics of the traced run, with their units.
LAYER_UNITS = {
    "characters.span_s": "s",
    "characters.span_products": "count",
    "characters.span_yield": "ratio",
    "characters.ranks_s": "s",
    "characters.certify_s": "s",
    "characters.oracle_s": "s",
    "characters.oracle_calls": "count",
    "characters.cache_entries": "count",
    "characters.span_cache_hit_ratio": "ratio",
    "linalg_gf2.rows_added": "count",
    "linalg_gf2.independent_ratio": "ratio",
    "gf2_exterior.elements_built": "count",
    "standard_monomials.basis_s": "s",
    "standard_monomials.element_s": "s",
    "standard_monomials.straight_check_s": "s",
    "straightening.straighten_s": "s",
    "straightening.terms_out": "count",
    "straightening.memo_entries": "count",
    "symfunc.formula_s": "s",
    "symfunc.poly_products": "count",
    "tableaux.enumerate_s": "s",
    "trace.covered_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

class Tracer:
    """Records spans and counts for one process; install once, before set-up."""

    ROOT_SPAN = "bench.item"  # one span per benchmark item

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent span index or -1)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.span_sizes: dict = {}  # ideal_power_span arguments -> products
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span index, time covered by child spans]
        self._undo: list = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recorded as a span called ``name``."""
        spans, stack, perf = self.spans, self._stack, time.perf_counter
        self_s, total_s, calls = self.self_s, self.total_s, self.calls

        def traced(*args, **kwargs):
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                self_s[name] += dur - frame[1]
                total_s[name] += dur
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                spans[frame[0]] = (name, start, end, stack[-1][0] if stack else -1)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def install(self) -> None:
        hooks = {
            "characters.ideal_power_span": self._on_span,
            "straightening.two_straighten": self._on_straighten,
        }
        for mod, func in SPANNED:
            module = _module(mod)
            fn = getattr(module, func, None)
            if fn is None:
                self.absent.append(f"frobtab.{mod}.{func}")
                continue
            name = f"{mod}.{func}"
            self._rebind(fn, self.wrap(name, fn, hooks.get(name)))
        for mod, cls_name, meth in COUNTED:
            cls = getattr(_module(mod), cls_name, None)
            fn = getattr(cls, meth, None)
            if fn is None:
                self.absent.append(f"frobtab.{mod}.{cls_name}.{meth}")
                continue
            setattr(cls, meth, self._counted(f"{cls_name}.{meth}", fn))
            self._undo.append((cls, meth, fn))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def _counted(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += 1
            if result is True:
                counts[key + ".true"] += 1
            return result

        return counted

    def _rebind(self, old, new) -> None:
        for mname, module in list(sys.modules.items()):
            if mname != "frobtab" and not mname.startswith("frobtab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)
                    self._undo.append((module, attr, old))

    def _on_span(self, args, result) -> None:
        self.span_sizes[args] = len(result)

    def _on_straighten(self, args, result) -> None:
        self.counts["straightening.terms_out"] += len(result)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, wall_s: float, ranks: dict | None = None) -> dict:
        """Per-layer metrics of a pass whose timed region took ``wall_s``.

        ``ranks`` maps ``ideal_power_span`` arguments to the rank of that
        span, when the workload knows it; it gives ``span_yield``.
        """
        products = sum(self.span_sizes.values())
        rank = sum((ranks or {}).get(key, 0) for key in self.span_sizes)
        adds = self.counts["EchelonBasis.add"]
        root = self.ROOT_SPAN
        return {
            "characters.span_s": self.self_s["characters.ideal_power_span"],
            "characters.span_products": products,
            "characters.span_yield": rank / products if products else 0.0,
            "characters.ranks_s": self.self_s["characters.subquotient_character"],
            "characters.certify_s": self.self_s["characters.verify_triple"],
            "characters.oracle_s": self.self_s["characters.in_ideal_power"],
            "characters.oracle_calls": self.calls["characters.in_ideal_power"],
            "characters.cache_entries": self._cache_entries(),
            "characters.span_cache_hit_ratio": self._span_hit_ratio(),
            "linalg_gf2.rows_added": adds,
            "linalg_gf2.independent_ratio": (
                self.counts["EchelonBasis.add.true"] / adds if adds else 0.0
            ),
            "gf2_exterior.elements_built": self.counts["ExtElement.__init__"],
            "standard_monomials.basis_s": self.self_s["standard_monomials.basis_index_set"],
            "standard_monomials.element_s": self.self_s["standard_monomials.standard_monomial"],
            "standard_monomials.straight_check_s": self.self_s[
                "standard_monomials.is_two_straight"
            ],
            "straightening.straighten_s": self.self_s["straightening.two_straighten"],
            "straightening.terms_out": self.counts["straightening.terms_out"],
            "straightening.memo_entries": self._memo_entries(),
            "symfunc.formula_s": self.self_s["symfunc.expected_character"],
            "symfunc.poly_products": self.counts["SymPoly.__mul__"],
            "tableaux.enumerate_s": self.self_s["tableaux.enumerate_tableaux"],
            "trace.covered_ratio": (self.total_s[root] - self.self_s[root]) / wall_s,
        }

    def _cache_entries(self) -> int:
        module = _module("characters")
        caches = [v for v in vars(module).values() if hasattr(v, "cache_info")] if module else []
        if not caches:
            self.absent.append("characters: no lru_cache")
            return 0
        return sum(c.cache_info().currsize for c in caches)

    def _span_hit_ratio(self) -> float:
        cached = getattr(_module("characters"), "_ideal_span_cached", None)
        if not hasattr(cached, "cache_info"):
            self.absent.append("characters._ideal_span_cached")
            return 0.0
        info = cached.cache_info()
        # each ideal_power_span call made ahead of verify_triple is one extra
        # lookup, and a hit for the later one inside verify_triple
        hits = max(info.hits - self.calls["characters.ideal_power_span"], 0)
        lookups = hits + info.misses
        return hits / lookups if lookups else 0.0

    def _memo_entries(self) -> int:
        memo = getattr(_module("straightening"), "_TS_CACHE", None)
        if not hasattr(memo, "__len__"):
            self.absent.append("straightening._TS_CACHE")
            return 0
        return len(memo)

    def write_spans(self, path) -> None:
        """Write the spans as tab-separated lines, times in microseconds."""
        t0 = min((s[1] for s in self.spans if s is not None), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_us\tend_us\tparent\n")
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent = span
                fh.write(
                    f"{i}\t{name}\t{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}\t{parent}\n"
                )


def _module(name: str):
    try:
        return importlib.import_module(f"frobtab.{name}")
    except ImportError:
        return None

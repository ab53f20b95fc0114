"""Outside-in tracing of foamlab's layer boundaries.

The tracer replaces each listed public function in every loaded ``foamlab``
module that holds it by name (``statespace`` imports ``evaluate`` by name,
for example), and each listed method on its class.  A call records one span;
a generator records one span per ``next()``.  Spans are kept in memory as
``(name, start, end, parent index)`` and summarised per layer: a span's self
time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute, span name, is a generator)
TARGETS = (
    ("foamlab.polyring", "ratfun_sum", "polyring.ratfun_sum", False),
    ("foamlab.polyring", "RatFun.normalize", "polyring.normalize", False),
    ("foamlab.polyring", "MultiPoly.exact_div", "polyring.exact_div", False),
    ("foamlab.foamcore", "compile_movie", "foamcore.compile", False),
    ("foamlab.foamcore", "enumerate_colorings", "foamcore.enumerate", True),
    ("foamlab.foamcore", "compose", "foamcore.compose", False),
    ("foamlab.foamcore", "mirror", "foamcore.mirror", False),
    ("foamlab.foameval", "evaluate", "foameval.evaluate", False),
    ("foamlab.foameval", "colored_eval", "foameval.colored_eval", False),
    ("foamlab.foameval", "degree", "foameval.degree", False),
    ("foamlab.actions", "act_witt", "actions.act", False),
    ("foamlab.actions", "act_sl2", "actions.act", False),
    ("foamlab.actions", "act_pdg", "actions.act", False),
    ("foamlab.actions", "FoamSum.movies", "actions.materialize", True),
    ("foamlab.actions", "FoamSum.value", "actions.value", False),
    ("foamlab.actions", "commutator_check", "actions.check", False),
    ("foamlab.actions", "sl2_relations_check", "actions.check", False),
    ("foamlab.statespace", "presentation", "statespace.presentation", False),
    ("foamlab.statespace", "circle_presentation", "statespace.presentation", False),
    ("foamlab.statespace", "theta_presentation", "statespace.presentation", False),
    ("foamlab.statespace", "zipped_presentation", "statespace.presentation", False),
    ("foamlab.statespace", "necklace_presentation", "statespace.presentation", False),
    ("foamlab.statespace", "chain_presentation", "statespace.presentation", False),
    ("foamlab.statespace", "gram_matrix", "statespace.gram", False),
    ("foamlab.statespace", "pair_movies", "statespace.pairing", False),
    ("foamlab.statespace", "graded_rank", "statespace.rank", False),
    ("foamlab.statespace", "induced_action", "statespace.induced", False),
    ("foamlab.statespace", "moy_check", "statespace.moy_check", False),
)

LAYERS = ("polyring", "foamcore", "foameval", "actions", "statespace")

# name -> unit, in the order reported; all are per traced pass
PER_LAYER = {
    "polyring.self_s": "s",
    "polyring.ratfun_sum.calls": "count",
    "polyring.ratfun_sum.self_s": "s",
    "polyring.exact_div.calls": "count",
    "polyring.exact_div.self_s": "s",
    "polyring.exact_div.fail_frac": "ratio",
    "polyring.normalize.calls": "count",
    "foamcore.self_s": "s",
    "foamcore.compile.calls": "count",
    "foamcore.compile.self_s": "s",
    "foamcore.colorings": "count",
    "foamcore.enumerate.self_s": "s",
    "foamcore.compose.calls": "count",
    "foameval.self_s": "s",
    "foameval.evaluate.calls": "count",
    "foameval.colored_eval.calls": "count",
    "foameval.colored_eval.self_s": "s",
    "foameval.zero_term_frac": "ratio",
    "foameval.degree.calls": "count",
    "actions.self_s": "s",
    "actions.act.calls": "count",
    "actions.act.self_s": "s",
    "actions.terms_out": "count",
    "actions.materialize.calls": "count",
    "statespace.self_s": "s",
    "statespace.gram_entries": "count",
    "statespace.pairings": "count",
    "statespace.pairings_per_entry": "ratio",
    "statespace.rank.self_s": "s",
    "statespace.induced.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """Patches foamlab in place; ``uninstall`` restores every original."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------
    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        holders = [
            m for name, m in sys.modules.items()
            if name == "foamlab" or name.startswith("foamlab.")
        ]
        for module, attr, name, is_gen in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                holders_of = [owner]
            else:
                holders_of = holders
            orig = getattr(owner, attr)
            wrapper = self._wrap_gen(name, orig) if is_gen else self._wrap(name, orig)
            for holder in holders_of:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, orig))

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter
        on_result = _RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            i = len(spans)
            spans.append(None)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                counters[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                spans[i] = (name, t0, clock(), parent)
                stack.pop()
            if on_result is not None:
                on_result(counters, out)
            return out

        return wrapper

    def _wrap_gen(self, name: str, fn):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter
        yields = f"{name}.yields"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                parent = stack[-1] if stack else -1
                i = len(spans)
                spans.append(None)
                stack.append(i)
                t0 = clock()
                try:
                    x = next(it)
                except StopIteration:
                    return
                finally:
                    spans[i] = (name, t0, clock(), parent)
                    stack.pop()
                counters[yields] += 1
                yield x

        return wrapper

    # -- results ------------------------------------------------------------
    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, t0, t1, _), c in zip(spans, child):
            self_s[name] += (t1 - t0) - c
            calls[name] += 1
        k = self.counters

        def ratio(a, b):
            return a / b if b else 0.0

        out = {f"{layer}.self_s": sum(v for n, v in self_s.items() if n.startswith(layer + "."))
               for layer in LAYERS}
        out.update({
            "polyring.ratfun_sum.calls": calls["polyring.ratfun_sum"],
            "polyring.ratfun_sum.self_s": self_s["polyring.ratfun_sum"],
            "polyring.exact_div.calls": calls["polyring.exact_div"],
            "polyring.exact_div.self_s": self_s["polyring.exact_div"],
            "polyring.exact_div.fail_frac": ratio(
                k["polyring.exact_div.raised.DivisionNotExact"], calls["polyring.exact_div"]),
            "polyring.normalize.calls": calls["polyring.normalize"],
            "foamcore.compile.calls": calls["foamcore.compile"],
            "foamcore.compile.self_s": self_s["foamcore.compile"],
            "foamcore.colorings": k["foamcore.enumerate.yields"],
            "foamcore.enumerate.self_s": self_s["foamcore.enumerate"],
            "foamcore.compose.calls": calls["foamcore.compose"],
            "foameval.evaluate.calls": calls["foameval.evaluate"],
            "foameval.colored_eval.calls": calls["foameval.colored_eval"],
            "foameval.colored_eval.self_s": self_s["foameval.colored_eval"],
            "foameval.zero_term_frac": ratio(k["foameval.zero_terms"], calls["foameval.colored_eval"]),
            "foameval.degree.calls": calls["foameval.degree"],
            "actions.act.calls": calls["actions.act"],
            "actions.act.self_s": self_s["actions.act"],
            "actions.terms_out": k["actions.terms_out"],
            "actions.materialize.calls": k["actions.materialize.yields"],
            "statespace.gram_entries": k["statespace.gram_entries"],
            "statespace.pairings": calls["statespace.pairing"],
            "statespace.pairings_per_entry": ratio(
                calls["statespace.pairing"], k["statespace.gram_entries"]),
            "statespace.rank.self_s": self_s["statespace.rank"],
            "statespace.induced.self_s": self_s["statespace.induced"],
            "trace.spans": len(spans),
        })
        return out


def write_spans(path: Path, spans: list) -> None:
    """Write spans as JSON: names once, then rows of (name index, start, end,
    parent index), times in microseconds from the first span's start."""
    names: dict[str, int] = {}
    base = spans[0][1] if spans else 0.0
    rows = [(names.setdefault(name, len(names)), round((t0 - base) * 1e6),
             round((t1 - base) * 1e6), parent) for name, t0, t1, parent in spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"names": list(names), "spans": rows}, fh, separators=(",", ":"))


def _count_zero_term(counters, r) -> None:
    if r.num.is_zero():
        counters["foameval.zero_terms"] += 1


def _count_terms(counters, s) -> None:
    counters["actions.terms_out"] += len(s)


def _count_entries(counters, g) -> None:
    rows, cols = g.shape
    counters["statespace.gram_entries"] += rows * cols


_RESULT_COUNTERS = {
    "foameval.colored_eval": _count_zero_term,
    "actions.act": _count_terms,
    "statespace.gram": _count_entries,
}

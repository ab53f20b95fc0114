"""The benchmark's four workloads, built through foamlab's public API.

An item is one top-level public call: one ``evaluate``, one ``moy_check``,
one ``induced_action`` with its check, or one identity check.  Each item
returns the exact text of its output (digested by the harness) and the
verdict of an independent check.

foamlab is reached through module attributes (``foameval.evaluate``, not a
name imported from it), so that the tracer's patches apply to these calls.

The movie sets of ``eval`` and ``operators`` come from one fixed stream,
``DESIGN_SEED``, and the run seed only orders their items.  Measured on
random streams, changing the seed moved a pass's wall time by 25-30 % and
the median item latency by 30-48 % (quartile spread over 8-10 seeds, as a
share of the median): more than any regression bound could absorb.  Stream
2 contains the documented ``mirror`` defect (movie 40), which ``eval``
counts as two failed items per pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from foamlab import actions, foameval, statespace
from foamlab.foamcore import MovieBuilder
from foamlab.polyring import GF, QQ, ZZ, SymPoly, WittSequence, power_sum

import gen

DESIGN_SEED = 2
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Item:
    label: str
    call: Callable[[], tuple[str, bool]]  # -> (exact output text, check ok)


@dataclass(frozen=True)
class Workload:
    name: str
    items: tuple[Item, ...]
    # items whose inputs could not be built: (label, error); each counts as
    # attempted and failed in every pass
    broken: tuple[tuple[str, str], ...]


def _matrix_text(matrix) -> str:
    return "[" + "; ".join(", ".join(str(e) for e in row) for row in matrix) + "]"


def _movie_items(size: str, count_full: int, ring, calls) -> tuple[list[Item], list]:
    """One item per movie of the design stream and ``(label, fn)`` in ``calls``."""
    count = count_full if size == "full" else 3
    items: list[Item] = []
    broken: list[tuple[str, str]] = []
    for g in gen.closed_movies(DESIGN_SEED, count, 5, 3, ring):
        for label, fn in calls:
            label = f"movie{g.index}.{label}"
            if g.movie is None:
                broken.append((label, f"{g.error} [build-up: {g.moves}]"))
            else:
                items.append(Item(label, partial(fn, g.movie)))
    return items, broken


# ---------------------------------------------------------------------------
# eval: one evaluate per closed movie and N
# ---------------------------------------------------------------------------


def _evaluate(N: int, movie) -> tuple[str, bool]:
    # evaluate itself raises unless the sum is a symmetric polynomial of
    # the predicted degree; the digest pins the exact value
    return str(foameval.evaluate(movie, N).value), True


def _eval(seed: int, size: str) -> Workload:
    items, broken = _movie_items(size, 60, ZZ, [(f"N{N}", partial(_evaluate, N)) for N in (3, 4)])
    random.Random(seed).shuffle(items)
    return Workload("eval", tuple(items), tuple(broken))


# ---------------------------------------------------------------------------
# rank: local graded-rank relations, checked against Gaussian binomials
# ---------------------------------------------------------------------------

_RELATIONS = {
    "full": (("circle", 5, (2,)), ("digon", 4, (1, 1)), ("bad_digon", 4, (1, 1)),
             ("square", 3, ()), ("assoc", 3, (1, 1, 1))),
    "tiny": (("circle", 3, (2,)), ("digon", 3, (1, 1)), ("bad_digon", 3, (1, 1)),
             ("square", 2, ()), ("assoc", 3, (1, 1, 1))),
}


def _moy(relation: str, N: int, abc: tuple[int, ...], seed: int) -> tuple[str, bool]:
    rep = statespace.moy_check(relation, N, *abc, seed=seed)
    return f"{rep.ok} {rep.detail} {rep.witness}", rep.ok


def _rank(seed: int, size: str) -> Workload:
    items = tuple(
        Item(f"{rel}.N{N}", partial(_moy, rel, N, abc, seed))
        for rel, N, abc in _RELATIONS[size]
    )
    return Workload("rank", items, ())


# ---------------------------------------------------------------------------
# induced: operator matrices on state spaces, with their checks
# ---------------------------------------------------------------------------


def _rich_pack(N: int) -> actions.ActionParams:
    return actions.ActionParams(
        ring=QQ,
        N=N,
        s=Fraction(1, 4),
        nu1=WittSequence.linear(QQ, Fraction(1, 2)),
        nu2=WittSequence.linear(QQ, Fraction(-1, 3)),
        nu3=WittSequence.linear(QQ, Fraction(1, 5)),
        t1=Fraction(2, 3),
        t2=Fraction(-1, 2),
    )


def _dpack(N: int) -> actions.ActionParams:
    return actions.ActionParams(ring=GF(5), N=N, t1=1, t2=2, t3=0)


def _thin_cups(ring, N: int, kmax: int) -> statespace.Presentation:
    """Thin cups dotted p_1^k, k = 0..kmax: overcomplete when kmax >= N."""
    movies = []
    for k in range(kmax + 1):
        b = MovieBuilder()
        c = b.cup(1)
        if k:
            b.decorate(c, SymPoly(power_sum(ring, ("x1",), 1) ** k, (1,)))
        movies.append(b.movie())
    return statespace.presentation(movies, N, ring)


def _induced_item(op, pack, gens, store, key, p=None) -> tuple[str, bool]:
    act = statespace.induced_action(op, pack, gens)
    store[key] = act
    ok = act.certificate.ok
    if p is not None:
        ok = ok and statespace.mat_is_zero(statespace.operator_power(act, p))
    return f"{_matrix_text(act.matrix)} {act.certificate.detail}", ok


def _sl2_item(store, prefix) -> tuple[str, bool]:
    e, h, f = (store[f"{prefix}.{g}"] for g in "ehf")
    zero = statespace.mat_is_zero
    sub, scale, br = statespace.mat_sub, statespace.mat_scale, statespace.operator_commutator
    got = (
        zero(sub(br(e, f), h.matrix)),
        zero(sub(br(h, e), scale(e.matrix, 2))),
        zero(sub(br(h, f), scale(f.matrix, -2))),
    )
    return str(got), all(got)


def _induced(seed: int, size: str) -> Workload:
    full = size == "full"
    # circle(2,5) over F5 / circle(2,4) over Q / thin cups at N=4, kernel dim 2
    nd, ns, nc, a = (5, 4, 4, 2) if full else (3, 3, 2, 1)
    store: dict = {}
    groups = [
        ("circle_d", _dpack(nd), statespace.circle_presentation(a, nd, GF(5)), "d"),
        ("circle", _rich_pack(ns), statespace.circle_presentation(a, ns, QQ), "ehf"),
        ("cups_d", _dpack(nc), _thin_cups(GF(5), nc, nc + 2 if full else nc + 1), "d"),
        ("cups", _rich_pack(nc), _thin_cups(QQ, nc, nc + 2 if full else nc + 1), "ehf"),
    ]
    items = []
    for prefix, pack, gens, ops in groups:
        for op in ops:
            key = f"{prefix}.{op}"
            p = 5 if op == "d" else None
            items.append(Item(key, partial(_induced_item, op, pack, gens, store, key, p)))
        if ops == "ehf":
            items.append(Item(f"{prefix}.sl2", partial(_sl2_item, store, prefix)))
    return Workload("induced", tuple(items), ())


# ---------------------------------------------------------------------------
# operators: Witt and sl2 identities on formal sums, no evaluation
# ---------------------------------------------------------------------------


def _commutator(n: int, m: int, pack, movie) -> tuple[str, bool]:
    rep = actions.commutator_check(n, m, pack, movie)
    return f"{rep.ok} {rep.detail}", rep.ok


def _sl2_relations(pack, movie) -> tuple[str, bool]:
    rep = actions.sl2_relations_check(pack, movie)
    return f"{rep.ok} {rep.detail}", rep.ok


def _operators(seed: int, size: str) -> Workload:
    # nu3 = 0 (and t3 = 1/2) so the pack is valid on movies with saddles
    pack = actions.ActionParams(
        ring=QQ,
        N=3,
        s=Fraction(1, 4),
        nu1=WittSequence.linear(QQ, Fraction(1, 2)),
        nu2=WittSequence.linear(QQ, Fraction(-1, 3)),
        t1=Fraction(2, 3),
        t2=Fraction(-1, 2),
        spherical=False,
    )
    checks = [
        (f"L{n},L{m}", partial(_commutator, n, m, pack))
        for n in range(-1, 4)
        for m in range(n, 4)
    ] + [("sl2", partial(_sl2_relations, pack))]
    items, broken = _movie_items(size, 40, QQ, checks)
    random.Random(seed).shuffle(items)
    return Workload("operators", tuple(items), tuple(broken))


_BUILDERS = {"eval": _eval, "rank": _rank, "induced": _induced, "operators": _operators}


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The inputs of workload ``name`` for ``seed``; ``tiny`` is for tests."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return _BUILDERS[name](seed, size)

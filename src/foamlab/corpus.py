"""Random movie generation for property-based testing and benchmarks.

Closed movies are produced as ``compose(M, mirror(M))`` for a random
build-up movie ``M`` starting from the empty web; this guarantees closure
within a bounded number of basic moves while still exercising cups, zips,
digon-cups, saddles and decorations (and, mirrored, caps, unzips and
digon-caps).
"""

from __future__ import annotations

import random
from typing import Sequence

from .foamcore import Movie, MovieBuilder, compose, mirror
from .polyring import CoefRing, SymPoly, ZZ, facet_vars, symmetric_basis


def random_decoration(
    rng: random.Random, thickness: int, max_qdegree: int = 4, ring: CoefRing = ZZ
) -> SymPoly:
    """A random nonzero basis decoration on the inner alphabet."""
    kind = rng.choice(["elementary", "complete", "power_sum"])
    k_cap = max_qdegree // 2
    if kind == "elementary":
        k_cap = min(k_cap, thickness)
    k = rng.randint(1, max(1, k_cap))
    dec = symmetric_basis(kind, k, ring, facet_vars(thickness))
    if dec.poly.is_zero():
        dec = symmetric_basis("power_sum", 1, ring, facet_vars(thickness))
    return dec


def random_open_movie(
    rng: random.Random,
    n_moves: int = 3,
    max_thickness: int = 2,
    max_qdegree: int = 4,
    ring: CoefRing = ZZ,
    allow_saddle: bool = True,
) -> Movie:
    """A random movie from the empty web, at most ``n_moves`` basic moves."""
    b = MovieBuilder()
    for _ in range(n_moves):
        edges = sorted(b.web.edges)
        options = ["cup"]
        if edges:
            options.append("decorate")
        thin_pairs = [
            (x, y)
            for x in edges
            for y in edges
            if x < y
            and b.web.edges[x].thickness + b.web.edges[y].thickness <= max_thickness
        ]
        if thin_pairs:
            options.append("zip")
        thick = [e for e in edges if b.web.edges[e].thickness >= 2]
        if thick:
            options.append("digon_cup")
        same_th = [
            (x, y)
            for x in edges
            for y in edges
            if x <= y and b.web.edges[x].thickness == b.web.edges[y].thickness
        ]
        if allow_saddle and same_th:
            options.append("saddle")
        choice = rng.choice(options)
        if choice == "cup":
            b.cup(rng.randint(1, max_thickness))
        elif choice == "decorate":
            e = rng.choice(edges)
            b.decorate(e, random_decoration(rng, b.web.edges[e].thickness, max_qdegree, ring))
        elif choice == "zip":
            x, y = rng.choice(thin_pairs)
            b.zip(x, y)
        elif choice == "digon_cup":
            e = rng.choice(thick)
            th = b.web.edges[e].thickness
            a = rng.randint(1, th - 1)
            b.digon_cup(e, a, th - a)
        elif choice == "saddle":
            x, y = rng.choice(same_th)
            b.saddle(x, y)
    return b.movie()


def random_closed_movie(
    rng: random.Random,
    half_moves: int = 3,
    max_thickness: int = 2,
    max_qdegree: int = 4,
    ring: CoefRing = ZZ,
    allow_saddle: bool = True,
) -> Movie:
    m = random_open_movie(
        rng, half_moves, max_thickness, max_qdegree, ring, allow_saddle
    )
    return compose(m, mirror(m))


def closed_corpus(
    seed: int,
    count: int,
    half_moves: int = 3,
    max_thickness: int = 2,
    max_qdegree: int = 4,
    ring: CoefRing = ZZ,
    allow_saddle: bool = True,
) -> list[Movie]:
    rng = random.Random(seed)
    return [
        random_closed_movie(rng, half_moves, max_thickness, max_qdegree, ring, allow_saddle)
        for _ in range(count)
    ]


def spherical_corpus(seed: int, count: int, **kw) -> list[Movie]:
    """Closed movies without saddles (every facet a sphere patchwork)."""
    kw.setdefault("allow_saddle", False)
    return closed_corpus(seed, count, **kw)


def basic_open_movies(a: int = 1, b: int = 1, ring: CoefRing = ZZ) -> dict[str, Movie]:
    """One open movie per basic move, for operator identity checks.

    Each movie consists of a single basic move applied to the smallest web
    that supports it (``a``/``b`` control the thicknesses involved).
    """
    from .foamcore import Movie as _Movie

    def suffix(mov: _Movie, k: int) -> _Movie:
        return _Movie(mov.slices()[k], mov.moves[k:])

    out: dict[str, _Movie] = {}
    bld = MovieBuilder()
    bld.cup(a)
    out["cup"] = bld.movie()

    bld = MovieBuilder()
    c = bld.cup(a)
    bld.cap(c)
    out["cap"] = suffix(bld.movie(), 1)

    bld = MovieBuilder()
    c1 = bld.cup(a)
    c2 = bld.cup(a)
    bld.saddle(c1, c2)
    out["saddle"] = suffix(bld.movie(), 2)

    bld = MovieBuilder()
    c1 = bld.cup(a)
    c2 = bld.cup(b)
    z = bld.zip(c1, c2)
    out["zip"] = suffix(bld.movie(), 2)
    bld.unzip(z.thick_edge)
    out["unzip"] = suffix(bld.movie(), 3)

    bld = MovieBuilder()
    c = bld.cup(a + b)
    dc = bld.digon_cup(c, a, b)
    out["digon_cup"] = suffix(bld.movie(), 1)
    bld.digon_cap(dc.edge_a, dc.edge_b)
    out["digon_cap"] = suffix(bld.movie(), 2)

    bld = MovieBuilder()
    c = bld.cup(a)
    bld.decorate(c, random_decoration(random.Random(7), a, 4, ring))
    out["decorate"] = suffix(bld.movie(), 1)

    bld2 = MovieBuilder()
    x = bld2.cup(a)
    y = bld2.cup(a)
    z = bld2.cup(a)
    zxy = bld2.zip(x, y)
    zw = bld2.zip(zxy.thick_edge, z)
    mid = zw.out_a1  # the (x+y) arc entering the outer merge
    bld2.assoc(mid)
    out["assoc"] = suffix(bld2.movie(), 5)
    return out

"""Seeded closed movies for the benchmark, independent of ``foamlab.corpus``.

A closed movie is ``compose(M, mirror(M))`` for a random build-up movie
``M`` from the empty web.  Movies are drawn one at a time from a single
``random.Random(seed)``: the random draws for movie ``i`` happen before
``compose``/``mirror`` run, so a movie on which they raise is recorded as a
failure and the stream, hence every later movie, is unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from foamlab.foamcore import Movie, MovieBuilder, compose, mirror
from foamlab.polyring import CoefRing, symmetric_basis

_BASES = ("elementary", "complete", "power_sum")


@dataclass(frozen=True)
class Generated:
    """Movie ``index`` of a seeded sequence, or the error building it raised."""

    index: int
    movie: Movie | None
    error: str | None
    moves: str  # the build-up half, listed when building failed


def _decoration(rng: random.Random, thickness: int, ring: CoefRing):
    kind = rng.choice(_BASES)
    cap = min(2, thickness) if kind == "elementary" else 2
    k = rng.randint(1, cap)
    return symmetric_basis(kind, k, ring, tuple(f"x{i}" for i in range(1, thickness + 1)))


def _open_movie(rng: random.Random, half_moves: int, max_thickness: int, ring: CoefRing) -> Movie:
    b = MovieBuilder()
    for _ in range(half_moves):
        edges = sorted(b.web.edges)
        th = {e: b.web.edges[e].thickness for e in edges}
        zips = [(x, y) for x in edges for y in edges if x < y and th[x] + th[y] <= max_thickness]
        thick = [e for e in edges if th[e] >= 2]
        saddles = [(x, y) for x in edges for y in edges if x <= y and th[x] == th[y]]
        options = ["cup"]
        if edges:
            options.append("decorate")
        if zips:
            options.append("zip")
        if thick:
            options.append("digon_cup")
        if saddles:
            options.append("saddle")
        choice = rng.choice(options)
        if choice == "cup":
            b.cup(rng.randint(1, max_thickness))
        elif choice == "decorate":
            e = rng.choice(edges)
            b.decorate(e, _decoration(rng, th[e], ring))
        elif choice == "zip":
            b.zip(*rng.choice(zips))
        elif choice == "digon_cup":
            e = rng.choice(thick)
            a = rng.randint(1, th[e] - 1)
            b.digon_cup(e, a, th[e] - a)
        else:
            b.saddle(*rng.choice(saddles))
    return b.movie()


def closed_movies(
    seed: int, count: int, half_moves: int, max_thickness: int, ring: CoefRing
) -> list[Generated]:
    """``count`` closed movies from one seeded stream, failures kept in place."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        m = _open_movie(rng, half_moves, max_thickness, ring)
        moves = "; ".join(map(repr, m.moves))
        try:
            out.append(Generated(i, compose(m, mirror(m)), None, moves))
        except Exception as exc:  # a foamlab defect: counted, never hidden
            out.append(Generated(i, None, f"{type(exc).__name__}: {exc}", moves))
    return out

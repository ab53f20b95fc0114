"""Web state spaces from the pairing of build-up movies.

A web's state space is presented by a finite family of movies from the
empty web to the target web.  Pairing two such movies — composing one
with the time reversal of the other and evaluating the closed foam —
produces a Gram matrix whose rank (graded by the movies' degrees) is the
graded rank of the span of the family.  On top of this sit kernel-membership
tests, matrices for the operators of :mod:`foamlab.actions` expressed in a
generator family, and checks of the standard local rank relations.

All rank statements are relative to the supplied generator family: the
pairing certifies linear independence exactly, but spanning the full state
space is only validated against the known graded ranks.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Iterable, Sequence

from .actions import (
    ActionParams,
    FoamSum,
    _Skeleton,
    apply_operator,
    operator_index,
    parse_operator,
)
from .errors import (
    DivisionNotExact,
    InputError,
    NotWellDefined,
    RankUnstable,
    WrongRing,
)
from .foamcore import (
    Movie,
    MovieBuilder,
    Web,
    _strip_decorations,
    compose,
    mirror,
)
from .foameval import CheckReport, _decoration_degree, _family_values, degree, evaluate
from .polyring import (
    CoefRing,
    ElementaryBasis,
    Laurent,
    MultiPoly,
    Scalar,
    SymPoly,
    ZZ,
    _laurent_clean,
    _sum_of_products,
    elementary,
    evars,
    facet_vars,
    laurent_add,
    laurent_mul,
    qbinom_laurent,
    quantum_integer,
    witt_act,
    xvars,
)

__all__ = [
    "Presentation",
    "GramMatrix",
    "InducedAction",
    "presentation",
    "circle_presentation",
    "theta_presentation",
    "zipped_presentation",
    "necklace_presentation",
    "chain_presentation",
    "box_partitions",
    "elementary_product",
    "pair_movies",
    "gram_matrix",
    "graded_rank",
    "presentation_rank",
    "is_zero_in_statespace",
    "induced_action",
    "moy_check",
    "WEB_FAMILIES",
    "MOY_RELATIONS",
    "laurent_add",
    "laurent_mul",
    "quantum_integer",
    "mat_add",
    "mat_sub",
    "mat_mul",
    "mat_scale",
    "mat_is_zero",
    "scalar_matrix",
    "base_derivation",
    "operator_compose",
    "operator_commutator",
    "operator_power",
]

#: A prime larger than 2**31 used for randomized rank specializations.
_RANK_PRIME = 2147483659


# ---------------------------------------------------------------------------
# Presentations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Presentation:
    """A web together with a finite family of build-up movies.

    ``base`` selects the coefficient base of the pairing: ``"equivariant"``
    keeps values as symmetric polynomials, ``"phi0"`` sends every ``e_k`` to
    0, so values become constants of the same alphabet.
    """

    web: Web
    movies: tuple[Movie, ...]
    degrees: tuple[int, ...]
    N: int
    ring: CoefRing
    base: str

    def __len__(self) -> int:
        return len(self.movies)


def presentation(
    movies: Sequence[Movie], N: int, ring: CoefRing = ZZ, base: str = "equivariant"
) -> Presentation:
    movies = tuple(movies)
    if not movies:
        raise InputError("a presentation needs at least one movie")
    if base not in ("equivariant", "phi0"):
        raise InputError(f"unknown base {base!r}")
    webs = [m.output_web for m in movies]
    web = webs[0]
    for m, w in zip(movies, webs):
        if w != web:
            raise InputError("presentation movies do not share a boundary web")
        if not m.input_web.is_empty():
            raise InputError("presentation movies must start at the empty web")
    # A movie's degree is its undecorated movie's plus its decorations', so
    # each undecorated movie is compiled once.
    bare: dict[Movie, int] = {}
    raw = []
    for m in movies:
        stripped, decorations = _strip_decorations(m)
        if stripped not in bare:
            bare[stripped] = degree(stripped, N)
        raw.append(bare[stripped] + sum(_decoration_degree(d) for _, _, d in decorations))
    # The degree of an open movie is additive under gluing only up to a
    # constant depending on the boundary web; calibrate it so that pairing
    # two generators is homogeneous of the sum of their degrees.  The
    # constant is read on the first undecorated movie.
    first = next(iter(bare))
    offset = degree(compose(first, mirror(first)), N) - 2 * bare[first]
    if offset % 2:
        raise InputError("odd boundary offset: degrees cannot be calibrated")
    degrees = tuple(d + offset // 2 for d in raw)
    return Presentation(web, movies, degrees, N, ring, base)


def box_partitions(rows: int, cols: int) -> list[tuple[int, ...]]:
    """All partitions with at most ``rows`` parts, each at most ``cols``."""
    if rows < 0 or cols < 0:
        return []
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], bound: int) -> None:
        out.append(prefix)
        if len(prefix) == rows:
            return
        for part in range(1, bound + 1):
            rec(prefix + (part,), part)

    rec((), cols)
    return sorted(out, key=lambda mu: (sum(mu), mu))


def elementary_product(ring: CoefRing, a: int, mu: Sequence[int]) -> SymPoly:
    """The product ``e_{mu_1} e_{mu_2} ...`` on a thickness-``a`` alphabet."""
    vs = facet_vars(a)
    poly = MultiPoly.const(ring, vs, 1)
    for part in mu:
        poly = poly * elementary(ring, vs, part)
    return SymPoly(poly, (a,))


def _require_thicknesses(*thicknesses: int) -> None:
    if min(thicknesses) < 1:
        raise InputError(f"edge thicknesses must be >= 1, got {thicknesses}")


def _split_circle(
    s: int, splits: Sequence[tuple[str, int, int]], N: int, ring: CoefRing, base: str
) -> Presentation:
    """A thickness-``s`` cup split by digon cups, one movie per decoration.

    The cup carries ``e_lam`` for ``lam`` in the ``(N-s) x s`` box.  A split
    ``(where, a, b)`` opens a digon on ``where`` (``"circle"``, or the
    ``"a"``, ``"b"`` or ``"low"`` edge of the previous split) and decorates
    its thickness-``a`` edge by ``e_mu`` for ``mu`` in the ``b x a`` box.
    The movies run over the product of the boxes, the first box outermost.
    """
    boxes = [[elementary_product(ring, s, lam) for lam in box_partitions(N - s, s)]]
    boxes += [
        [elementary_product(ring, a, mu) for mu in box_partitions(b, a)]
        for _, a, b in splits
    ]
    movies = []
    for decorations in itertools.product(*boxes):
        bld = MovieBuilder()
        edges = {"circle": bld.cup(s)}
        bld.decorate(edges["circle"], decorations[0])
        for (where, a, b), dec in zip(splits, decorations[1:]):
            d = bld.digon_cup(edges[where], a, b)
            bld.decorate(d.edge_a, dec)
            edges = {"a": d.edge_a, "b": d.edge_b, "low": d.out_low}
        movies.append(bld.movie())
    return presentation(movies, N, ring, base)


def circle_presentation(
    a: int, N: int, ring: CoefRing = ZZ, base: str = "equivariant"
) -> Presentation:
    """Cups decorated by elementary products indexed by the (N-a) x a box."""
    if not 0 < a <= N:
        raise InputError(f"circle thickness {a} out of range for N={N}")
    return _split_circle(a, (), N, ring, base)


def theta_presentation(
    a: int, b: int, N: int, ring: CoefRing = ZZ, base: str = "equivariant"
) -> Presentation:
    """The two-vertex web read as a thick circle with a pinched-in bigon."""
    _require_thicknesses(a, b)
    if a + b > N:
        raise InputError(f"total thickness {a + b} exceeds N={N}")
    return _split_circle(a + b, [("circle", a, b)], N, ring, base)


def zipped_presentation(
    a: int, b: int, N: int, ring: CoefRing = ZZ, base: str = "equivariant"
) -> Presentation:
    """The two-vertex web read as two circles merged along a seam pair."""
    _require_thicknesses(a, b)
    if a + b > N:
        raise InputError(f"total thickness {a + b} exceeds N={N}")
    movies = []
    for lam in box_partitions(N - a, a):
        for nu in box_partitions(N - a - b, b):
            bld = MovieBuilder()
            ca = bld.cup(a)
            bld.decorate(ca, elementary_product(ring, a, lam))
            cb = bld.cup(b)
            bld.decorate(cb, elementary_product(ring, b, nu))
            bld.zip(ca, cb)
            movies.append(bld.movie())
    return presentation(movies, N, ring, base)


def necklace_presentation(
    N: int, ring: CoefRing = ZZ, base: str = "equivariant"
) -> Presentation:
    """Thickness-2 circle carrying two thin bigons (the four-vertex ladder)."""
    if N < 2:
        raise InputError("the ladder web needs N >= 2")
    return _split_circle(2, [("circle", 1, 1), ("low", 1, 1)], N, ring, base)


def chain_presentation(
    order: str, a: int, b: int, c: int, N: int,
    ring: CoefRing = ZZ, base: str = "equivariant",
) -> Presentation:
    """A thick circle split twice, with the two bracketings of (a, b, c)."""
    _require_thicknesses(a, b, c)
    s = a + b + c
    if s > N:
        raise InputError(f"total thickness {s} exceeds N={N}")
    if order == "left":
        splits = [("circle", a + b, c), ("a", a, b)]
    elif order == "right":
        splits = [("circle", a, b + c), ("b", b, c)]
    else:
        raise InputError(f"unknown bracketing {order!r}")
    return _split_circle(s, splits, N, ring, base)


#: Generator family -> (argument count, builder called with the arguments,
#: then N, ring and base); the ``--web`` families of the command line.
WEB_FAMILIES = {
    "circle": (1, circle_presentation),
    "digon": (2, theta_presentation),
    "bad_digon": (2, zipped_presentation),
    "necklace": (0, necklace_presentation),
    "chain_left": (3, partial(chain_presentation, "left")),
    "chain_right": (3, partial(chain_presentation, "right")),
}


# ---------------------------------------------------------------------------
# Pairing and Gram matrices
# ---------------------------------------------------------------------------


def pair_movies(F: Movie, G: Movie, N: int, ring: CoefRing = ZZ) -> MultiPoly:
    """Total evaluation of ``F`` composed with the time reversal of ``G``."""
    return evaluate(compose(F, mirror(G)), N, ring).value


def _base_entry(value: MultiPoly, base: str) -> MultiPoly:
    """A pairing value over ``base``, in the value's own alphabet.

    The ``phi0`` base keeps the constant term: in ``e_1..e_N`` it is the
    image under ``e_k -> 0``, and in ``X1..XN`` under ``X_i -> 0``, the one
    ring map to the coefficients that kills every ``e_k`` (each ``X_i`` is
    a root of ``t^N``, and Z, Q and F_p have no nonzero nilpotents).
    """
    if base == "phi0":
        return MultiPoly.const(value.ring, value.vars, value.constant_value())
    return value


Matrix = tuple[tuple[MultiPoly, ...], ...]


def _expanded(S: Matrix, basis: ElementaryBasis) -> Matrix:
    """A matrix stored in ``e_1..e_N`` in ``X1..XN``."""
    return tuple(tuple(basis.from_e(e) for e in row) for row in S)


@dataclass(frozen=True)
class GramMatrix:
    """Matrix of pairings between the generators of one family.

    ``e_entries`` are the pairings as computed, in ``e_1..e_N`` (variables
    ``E1..EN``); on ``phi0`` they are constants over ``E1..EN``.
    """

    e_entries: Matrix
    row_degrees: tuple[int, ...]
    N: int
    ring: CoefRing
    base: str

    @property
    def entries(self) -> Matrix:
        """The pairings in ``X1..XN``; expanded on every read."""
        return _expanded(self.e_entries, ElementaryBasis(xvars(self.N)))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.e_entries), len(self.e_entries[0]) if self.e_entries else 0)


def gram_matrix(gens: Presentation) -> GramMatrix:
    basis = ElementaryBasis(xvars(gens.N))
    rows = _pairings(_movie_sums(gens.movies, gens), gens, basis)
    entries = tuple(tuple(_base_entry(e, gens.base) for e in row) for row in rows)
    return GramMatrix(entries, gens.degrees, gens.N, gens.ring, gens.base)


def _movie_sums(movies: Iterable[Movie], gens: Presentation) -> list[FoamSum]:
    """Movies as formal sums over the ring and N of ``gens``.

    Movies with the same undecorated movie share one skeleton.
    """
    skeletons: dict[Movie, _Skeleton] = {}
    sums = []
    for mov in movies:
        stripped, decorations = _strip_decorations(mov)
        if stripped not in skeletons:
            skeletons[stripped] = _Skeleton(stripped, gens.ring, gens.N)
        sums.append(FoamSum._decorated(skeletons[stripped], decorations))
    return sums


def _pairings(
    rows: Sequence[FoamSum],
    gens: Presentation,
    basis: ElementaryBasis,
    columns: Sequence[Sequence[int]] | None = None,
) -> list[list[MultiPoly]]:
    """Entry ``[i][k]`` pairs ``rows[i]`` with ``gens.movies[columns[i][k]]``,
    equivariantly, as a polynomial in ``e_1..e_N`` of ``basis``; with no
    ``columns``, every row is paired with every generator.

    A row is paired as its skeleton composed with the mirrored generator,
    its terms' dot shapes placed where they sit on the skeleton; no term
    becomes a movie.  Each (skeleton, generator) composite is built once,
    when a requested pair first needs it, and shared by the rows over that
    skeleton; all pairings go through one
    :func:`~foamlab.foameval.evaluate_family` call (in ``e_1..e_N``).
    """
    if columns is None:
        columns = [range(len(gens.movies))] * len(rows)
    mirrors: dict[int, Movie] = {}
    composites: dict[_Skeleton, dict[int, Movie]] = {}
    foams: list = []
    for row, cols in zip(rows, columns):
        skel = row.skeleton
        if skel.ring != gens.ring or skel.N != gens.N:
            raise InputError(
                f"formal sum over {skel.ring} with N={skel.N}, presentation over"
                f" {gens.ring} with N={gens.N}"
            )
        built = composites.setdefault(skel, {})
        terms = [(c, tuple((*skel.rep[f], s) for f, s in d)) for c, d in row.terms]
        for j in cols:
            if j not in built:
                if j not in mirrors:
                    mirrors[j] = mirror(gens.movies[j])
                built[j] = compose(skel.movie, mirrors[j])
            foams.append((built[j], terms))
    values = iter(_family_values(foams, gens.N, gens.ring, basis))
    return [[next(values) for _ in cols] for cols in columns]


# ---------------------------------------------------------------------------
# Graded rank via randomized specialization
# ---------------------------------------------------------------------------


def _specialize(entry: MultiPoly, values: dict[str, int], p: int) -> int:
    """``entry`` at the point ``values``, modulo ``p``.

    Each coefficient and each power is reduced mod ``p`` as it is read, so
    no exact value is built; a ``Fraction`` coefficient needs its
    denominator invertible mod ``p``.
    """
    point = [values[v] for v in entry.vars]
    total = 0
    for e, c in entry.terms.items():
        if type(c) is not int:
            if c.denominator % p == 0:
                raise WrongRing(
                    f"coefficient denominator {c.denominator} is not invertible mod {p}"
                )
            c = c.numerator * pow(c.denominator, -1, p)
        term = c % p
        for x, k in zip(point, e):
            if k:
                term = term * pow(x, k, p) % p
        total += term
    return total % p


def _rank_once(spec: list[list[int]], degrees: Sequence[int], p: int) -> Laurent:
    """The graded rank of a matrix of scalars mod ``p``, row ``i`` of degree
    ``degrees[i]``, with pivots chosen greedily in degree order."""
    order = sorted(range(len(spec)), key=lambda i: (degrees[i], i))
    pivots: list[tuple[int, list[int]]] = []  # (pivot column, normalized row)
    rank: Laurent = {}
    for i in order:
        row = list(spec[i])
        for col, prow in pivots:
            f = row[col]
            if f:
                row = [(x - f * y) % p for x, y in zip(row, prow)]
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:
            continue
        inv = pow(row[col], -1, p)
        pivots.append((col, [x * inv % p for x in row]))
        d = degrees[i]
        rank[d] = rank.get(d, 0) + 1
    return _laurent_clean(rank)


def _rank_at(entries: Matrix, degrees: Sequence[int], point: Sequence[int]) -> Laurent:
    """The graded rank of ``entries`` read at ``point`` of ``E1..EN``, mod
    :data:`_RANK_PRIME`."""
    p = _RANK_PRIME
    values = dict(zip(evars(len(point)), point))
    spec = [[_specialize(e, values, p) for e in row] for row in entries]
    return _rank_once(spec, degrees, p)


def _exact_rank(entries: Matrix, degrees: Sequence[int], N: int) -> Laurent | None:
    """The graded rank of the ``phi0`` matrix ``M_0`` (``entries`` at the
    point 0) when it has full row rank, which is then the exact graded rank
    of ``entries``; ``None`` when ``M_0`` is singular."""
    rank = _rank_at(entries, degrees, [0] * N)
    return rank if sum(rank.values()) == len(entries) else None


def _sampled_rank(G: GramMatrix, trials: int, seed: int) -> Laurent:
    """The graded rank of ``G`` at ``trials`` random points of ``E1..EN``,
    which must agree."""
    rng = random.Random(seed)
    results = [
        _rank_at(G.e_entries, G.row_degrees, rng.sample(range(1, _RANK_PRIME), G.N))
        for _ in range(trials)
    ]
    if any(r != results[0] for r in results[1:]):
        raise RankUnstable(f"specializations disagree: {results}")
    return results[0]


def _require_rank_inputs(ring: CoefRing, trials: int) -> None:
    if ring.kind not in ("Z", "Q"):
        raise WrongRing("graded ranks are computed over Z or Q coefficients")
    if trials < 1:
        raise InputError("at least one specialization is required")


def graded_rank(G: GramMatrix, trials: int = 3, seed: int = 0) -> Laurent:
    """Graded rank of the pairing: exact when the ``phi0`` matrix has full
    row rank, else by repeated random specialization.

    For a presentation, :func:`presentation_rank` gives the same rank and
    computes only the pairings of ``M_0`` unless ``M_0`` is singular; this
    function serves a caller that already holds the whole Gram matrix.

    Each elimination reads the entries at a point of ``E1..EN`` modulo a
    prime ``p`` > 2**31 and row-reduces with pivots chosen greedily in
    generator-degree order; the contributions appear as ``q^degree``.  The
    first point is 0, where the entries are their constant terms, the
    ``phi0`` matrix ``M_0``.  Setting every ``e_k`` to 0 is a ring map, so a
    nonzero ``n x n`` minor of ``M_0`` mod ``p`` is the constant term of the
    same minor of the Gram matrix, which is then nonzero: every row is a
    pivot, and the rank ``sum q^{deg_i}`` is returned with no point drawn.
    Otherwise ``trials`` points are drawn, with distinct random coordinates,
    and disagreeing trials raise :class:`RankUnstable` rather than
    averaging.  The ``e_1..e_N`` are algebraically independent, so a minor
    that is nonzero in ``X1..XN`` is a nonzero polynomial in ``E1..EN``.

    A trial errs only when the rank of some row prefix drops at the chosen
    point, that is, when a nonzero minor vanishes there.  The graded rank
    is decided by at most ``n`` row prefixes, each by one minor of size at
    most ``r = min(n, m)`` and total degree in ``E1..EN`` at most ``r * D``,
    where ``D`` is the largest total degree of an entry in ``E1..EN`` (at
    most its degree in ``X1..XN``, since ``e_k`` has degree ``k`` there).
    By Schwartz--Zippel one trial is therefore wrong with probability at
    most ``eps = n * r * D / p`` (times ``1 + O(N**2 / p)`` because the
    coordinates are drawn distinct), and ``trials`` independent trials all
    return the same wrong rank with probability at most ``eps ** trials``.
    This bound covers only a singular ``M_0``, and assumes no such minor
    vanishes identically mod ``p``.
    """
    _require_rank_inputs(G.ring, trials)
    rank = _exact_rank(G.e_entries, G.row_degrees, G.N)
    return _sampled_rank(G, trials, seed) if rank is None else rank


def presentation_rank(gens: Presentation, trials: int = 3, seed: int = 0) -> Laurent:
    """The graded rank of the pairing on ``gens``, from its degree-0 band.

    Equal to ``graded_rank(gram_matrix(gens), trials, seed)``.  A pairing
    ``<G_i; G_j>`` is homogeneous of q-degree ``deg_i + deg_j`` (the degree
    check enforces it on every value computed), so its constant term, its
    entry in the ``phi0`` matrix ``M_0``, is 0 unless ``deg_i + deg_j = 0``.
    Only the pairs of that band are computed, each with every check of
    :func:`gram_matrix`, and ``M_0`` is ranked from them as in
    :func:`graded_rank`: at full row rank the rank ``sum q^{deg_i}`` is
    exact.  Only a singular ``M_0`` completes the Gram matrix, pairing the
    pairs off the band, which is then ranked at ``trials`` random points;
    each pair is computed once either way.  The ring and ``trials`` are
    checked before any pairing.
    """
    _require_rank_inputs(gens.ring, trials)
    degrees, n = gens.degrees, len(gens)
    basis = ElementaryBasis(xvars(gens.N))
    sums = _movie_sums(gens.movies, gens)
    zero = MultiPoly.zero(gens.ring, basis.e_names)
    entries = [[zero] * n for _ in range(n)]

    def pair(on_band: bool) -> None:
        cols = [[j for j in range(n) if (d + degrees[j] == 0) == on_band] for d in degrees]
        for row, js, values in zip(entries, cols, _pairings(sums, gens, basis, cols)):
            for j, value in zip(js, values):
                row[j] = _base_entry(value, gens.base)

    pair(True)
    rank = _exact_rank(entries, degrees, gens.N)
    if rank is None:
        pair(False)
        G = GramMatrix(tuple(map(tuple, entries)), degrees, gens.N, gens.ring, gens.base)
        rank = _sampled_rank(G, trials, seed)
    return rank


# ---------------------------------------------------------------------------
# Kernel membership
# ---------------------------------------------------------------------------


def is_zero_in_statespace(
    v: FoamSum | Iterable[tuple[Scalar | MultiPoly, Movie]], gens: Presentation
) -> bool:
    """Whether ``v`` pairs to zero against every generator.

    This certifies membership in the kernel of the pairing *relative to the
    supplied family*: it is exact when the family spans the state space and
    one-sided otherwise.  Coefficients may be scalars or polynomials in the
    full alphabet.
    """
    basis = ElementaryBasis(xvars(gens.N))
    if isinstance(v, FoamSum):
        (row,) = _pairings([v], gens, basis)
    else:
        # a polynomial coefficient need not be symmetric: the row is summed
        # in X1..XN
        vs = xvars(gens.N)
        v = list(v)
        for coef, _ in v:
            if isinstance(coef, MultiPoly) and not set(coef.vars) <= set(vs):
                raise InputError(
                    f"coefficient in {coef.vars} is not a polynomial in {vs}"
                )
        row = [MultiPoly.zero(gens.ring, vs) for _ in gens.movies]
        pairs = _pairings(_movie_sums((mov for _, mov in v), gens), gens, basis)
        for (coef, _), values in zip(v, _expanded(pairs, basis)):
            c = coef.extend(vs) if isinstance(coef, MultiPoly) else coef
            row = [e + value * c for e, value in zip(row, values)]
    return all(_base_entry(e, gens.base).is_zero() for e in row)


# ---------------------------------------------------------------------------
# Exact linear algebra over polynomial entries
# ---------------------------------------------------------------------------


def _fraction_free_solve(
    M: list[list[MultiPoly]], B: list[list[MultiPoly]]
) -> tuple[int, list[list[MultiPoly]], list[list[MultiPoly]]]:
    """Rank of ``M``, a basis of its right kernel, and the solution of ``M X = B``.

    One fraction-free Gauss--Jordan pass (Bareiss) over ``[M | B]``.  Each
    column of ``M`` in turn is pivoted on its first nonzero entry at or
    below the current row, and every other row becomes
    ``(p * a_ij - a_ic * p_j) / prev``, where ``p`` is the new pivot, ``p_j``
    the pivot row and ``prev`` the previous pivot (1 at first).  Every entry
    is then a minor of ``[M | B]``, so each division is exact (Sylvester's
    identity), and every pivot equals the last one, ``D`` (``prev`` after
    the loop).  Only arithmetic that can change an entry is done: a row
    with ``a_ic = 0`` under ``p = prev`` is left as it is, an entry with
    ``a_ij = p_j = 0`` stays 0, and a product with a zero factor is not
    formed.  Most pivots are constants, so the divisions by ``prev`` are
    term by term (:meth:`MultiPoly.exact_div`).

    For a free column ``fc`` the kernel vector has ``D`` at ``fc`` and
    ``-A[r][fc]`` at the pivot column of each row ``r``.  The solution is the
    reduced one with the free unknowns 0, ``X[pc][col] = A[r][n + col] / D``.
    Raises :class:`NotWellDefined` when a column of ``B`` is outside the span
    of ``M`` or the solution is not polynomial.

    :func:`induced_action` calls it only when :func:`_lifted_solve` cannot
    certify this answer; it is the reference the lifted solve is tested
    against, and the one source of the solver's errors.
    """
    n = len(M)
    ring, vs = M[0][0].ring, M[0][0].vars
    zero = MultiPoly.zero(ring, vs)
    A = [list(M[i]) + list(B[i]) for i in range(n)]
    width = len(A[0])
    prev = MultiPoly.const(ring, vs, 1)
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        found = next((i for i in range(r, n) if not A[i][c].is_zero()), None)
        if found is None:
            continue
        A[r], A[found] = A[found], A[r]
        prow = A[r]
        p = prow[c]
        unscaled = p == prev
        for i, row in enumerate(A):
            f = row[c]
            f_zero = f.is_zero()
            if i == r or (f_zero and unscaled):
                continue  # the update would be (p * a - 0) / p = a
            for j in range(width):
                if j == c:
                    row[j] = zero
                    continue
                a, b = row[j], prow[j]
                # form only the products that are not zero
                if f_zero or b.is_zero():
                    if a.is_zero():
                        continue
                    num = p * a
                elif a.is_zero():
                    num = -(f * b)
                else:
                    num = p * a - f * b
                row[j] = zero if num.is_zero() else num.exact_div(prev)
        prev = p
        pivots.append(c)
    rank = len(pivots)
    if any(not e.is_zero() for row in A[rank:] for e in row[n:]):
        raise NotWellDefined(
            "operator image is not in the span of the generator pairings"
        )
    kernel: list[list[MultiPoly]] = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [zero] * n
        vec[fc] = prev
        for r, pc in enumerate(pivots):
            vec[pc] = -A[r][fc]
        kernel.append(vec)
    X = [[zero] * (width - n) for _ in range(n)]
    for r, pc in enumerate(pivots):
        for col, e in enumerate(A[r][n:]):
            if e.is_zero():
                continue
            try:
                X[pc][col] = e.exact_div(prev)
            except DivisionNotExact:
                raise NotWellDefined(
                    "operator matrix entry is not polynomial over the base"
                ) from None
    return rank, kernel, X


def _pivot_block(
    M0: list[list[Scalar]], ring: CoefRing
) -> tuple[list[int], list[int], list[list[Scalar]]] | None:
    """Gauss--Jordan on the scalar matrix ``M0`` over the coefficient field
    (Q for Z and Q, F_p for F_p), each column in turn pivoted on a row not
    yet used.

    Returns the pivot columns ``P``, their pivot rows ``R`` and
    ``U = M0[R, P]^-1``, row ``a`` for ``P[a]`` and column ``b`` for
    ``R[b]``; None over Z when ``U`` is not integral.  Each row carries the
    row operations done on it as a row of the identity.  A pivot row is only
    ever combined with pivot rows, so those carried rows, read at the
    columns ``R``, are ``U``.
    """
    n = len(M0)
    if ring.kind == "Fp":
        p = ring.p

        def inverse(x: Scalar) -> Scalar:
            return pow(x, -1, p)

        def reduce(x: Scalar) -> Scalar:
            return x % p
    else:
        def inverse(x: Scalar) -> Scalar:
            return x if x in (1, -1) else 1 / Fraction(x)

        def reduce(x: Scalar) -> Scalar:
            return x
    A = [list(row) + [int(i == k) for k in range(n)] for i, row in enumerate(M0)]
    P: list[int] = []
    R: list[int] = []
    for c in range(n):
        i = next((i for i, row in enumerate(A) if row[c] and i not in R), None)
        if i is None:
            continue
        inv = inverse(A[i][c])
        prow = A[i] = [reduce(x * inv) for x in A[i]]
        for k, row in enumerate(A):
            f = row[c]
            if f and k != i:
                A[k] = [reduce(x - f * y) if y else x for x, y in zip(row, prow)]
        P.append(c)
        R.append(i)
    U = [[A[i][n + k] for k in R] for i in R]
    if ring.kind == "Z" and any(type(u) is not int and u.denominator != 1 for row in U for u in row):
        return None
    return P, R, [[ring.normalize(u) for u in row] for row in U]


def _weight(e: tuple[int, ...]) -> int:
    """The weight of an exponent: variable ``k`` (from 0) has weight
    ``k + 1``, as ``E_{k+1}`` has in ``e_1..e_N``."""
    return sum(map(operator.mul, e, itertools.count(1)))


def _lift(
    MRP: list[list[MultiPoly]], U: list[list[MultiPoly]], rhs: list[MultiPoly], bound: int
) -> list[MultiPoly] | None:
    """The polynomial ``y`` with ``MRP y = rhs``, one :func:`_weight` at a
    time, or None when the residual is still nonzero past weight ``bound``.

    ``U`` is the inverse of the constant terms of ``MRP``, as constants.
    The residual ``rhs - MRP y`` has no term below the weight ``d`` lifted
    next: its weight-``d`` part times ``U`` is ``y``'s, since ``MRP``'s
    weight-0 part times ``U`` is the identity.  Each step subtracts
    ``MRP y_d`` from the residual; when it is 0, ``MRP y = rhs`` exactly.
    """
    ring, vs = rhs[0].ring, rhs[0].vars
    one = MultiPoly.const(ring, vs, 1)
    lifted: list[dict] = [{} for _ in rhs]
    res = list(rhs)
    while True:
        d = min((_weight(e) for x in res for e in x.terms), default=None)
        if d is None:
            return [MultiPoly._from_terms(ring, vs, t) for t in lifted]
        if d > bound:
            return None
        low = [
            (b, MultiPoly._from_terms(ring, vs, {e: c for e, c in x.terms.items() if _weight(e) == d}))
            for b, x in enumerate(res) if x.terms
        ]
        y = [_sum_of_products(ring, vs, ((u[b], x) for b, x in low if u[b].terms)) for u in U]
        step = [(a, -ya) for a, ya in enumerate(y) if ya.terms]
        res = [
            _sum_of_products(ring, vs, [(one, x), *((row[a], ya) for a, ya in step if row[a].terms)])
            for row, x in zip(MRP, res)
        ]
        for t, ya in zip(lifted, y):
            t.update(ya.terms)


def _lifted_solve(
    M: list[list[MultiPoly]], B: list[list[MultiPoly]]
) -> tuple[int, list[list[MultiPoly]], list[list[MultiPoly]]] | None:
    """:func:`_fraction_free_solve` of ``M X = B`` by lifting from the
    constant terms ``M_0`` (Dixon's p-adic lifting, Numer. Math. 40, 1982,
    with the grading of ``e_1..e_N`` in place of ``p``); None when it
    cannot certify the same answer.

    :func:`_pivot_block` gives ``M_0``'s pivot columns ``P`` in column order,
    its pivot rows ``R`` and ``U = M_0[R, P]^-1``.  With the free columns
    ``F``, :func:`_lift` solves ``M[R, P] Y = [B_R | M[R, F]]`` column by
    column, up to the bound ``deg(rhs) + (r - 1) deg(M[R, P])`` that Cramer's
    rule puts on a polynomial solution.  Then, exactly:

    * the rows outside ``R`` satisfy ``M[Q, P] Y = [B_Q | M[Q, F]]``, so the
      columns ``P`` are a basis of the column space of ``M`` (the
      determinant of ``M[R, P]`` has a nonzero constant term, so they are
      independent);
    * each free column has zero coefficient on every later pivot column, so
      ``P`` is the greedy basis in column order, Bareiss's pivots.

    ``X`` is then Bareiss's: ``Y``'s rows at ``P``, 0 at the free unknowns.
    The kernel vector of free column ``f`` has 1 at ``f`` and ``-Y`` at the
    pivots, Bareiss's divided by its last pivot.  A non-integral ``U`` over
    Z, a residual past the bound or a failed check returns None.
    """
    n, m = len(M), len(B[0])
    ring, vs = M[0][0].ring, M[0][0].vars
    block = _pivot_block([[x.constant_value() for x in row] for row in M], ring)
    if block is None:
        return None
    P, R, U = block
    F = [c for c in range(n) if c not in P]
    rhs = [[*B[i], *(M[i][f] for f in F)] for i in range(n)]
    MRP = [[M[i][c] for c in P] for i in R]
    consts = [[MultiPoly.const(ring, vs, u) for u in row] for row in U]

    def deg(entries: Iterable[MultiPoly]) -> int:
        return max((_weight(e) for x in entries for e in x.terms), default=0)

    slope = (len(P) - 1) * deg(x for row in MRP for x in row)
    columns = []
    for j in range(m + len(F)):
        col = [rhs[i][j] for i in R]
        y = _lift(MRP, consts, col, deg(col) + slope) if col else []
        if y is None:
            return None
        columns.append(y)
    Y = [[col[a] for col in columns] for a in range(len(P))]
    for i in (i for i in range(n) if i not in R):
        for j, want in enumerate(rhs[i]):
            pairs = ((M[i][c], Y[a][j]) for a, c in enumerate(P))
            if _sum_of_products(ring, vs, pairs) != want:
                return None
    for k, f in enumerate(F):
        if any(c > f and Y[a][m + k].terms for a, c in enumerate(P)):
            return None
    zero, one = MultiPoly.zero(ring, vs), MultiPoly.const(ring, vs, 1)
    kernel = []
    for k, f in enumerate(F):
        vec = [zero] * n
        vec[f] = one
        for a, c in enumerate(P):
            vec[c] = -Y[a][m + k]
        kernel.append(vec)
    X = [[zero] * m for _ in range(n)]
    for a, c in enumerate(P):
        X[c] = Y[a][:m]
    return len(P), kernel, X


# ---------------------------------------------------------------------------
# Matrix helpers (entries are MultiPoly over a shared base)
# ---------------------------------------------------------------------------


def mat_add(A: Matrix, B: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_sub(A: Matrix, B: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_scale(A: Matrix, c: Scalar) -> Matrix:
    return tuple(tuple(x * c for x in row) for row in A)


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    cols = list(zip(*B))
    return tuple(
        tuple(_sum_of_products(row[0].ring, row[0].vars, zip(row, col)) for col in cols)
        for row in A
    )


def mat_is_zero(A: Matrix) -> bool:
    return all(e.is_zero() for row in A for e in row)


def scalar_matrix(A: Matrix) -> list[list[Scalar]]:
    """Constant values of a matrix whose entries are all constants."""
    out = []
    for row in A:
        if not all(e.is_constant() for e in row):
            raise InputError("matrix has non-constant entries")
        out.append([e.constant_value() for e in row])
    return out


# ---------------------------------------------------------------------------
# Induced operator matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InducedAction:
    """An operator expressed in a generator family, column convention.

    ``matrix[k][i]`` is the coefficient of generator ``k`` in the image of
    generator ``i``; operators compose by :func:`operator_compose`.
    ``solution`` is the same matrix as solved, with entries in ``e_1..e_N``
    (variables ``E1..EN``), and ``matrix`` is its expansion in ``X1..XN``;
    on the ``phi0`` base both hold constants.
    ``gens`` is the generator family of the coordinates.
    """

    op: str
    matrix: Matrix
    certificate: CheckReport
    solution: Matrix = field(repr=False)
    gens: Presentation = field(repr=False)

    @property
    def base(self) -> str:
        return self.gens.base


def _induced_system(
    op: str, params: ActionParams, gens: Presentation, basis: ElementaryBasis
) -> tuple[list[list[MultiPoly]], list[list[MultiPoly]]]:
    """The system ``M X = B`` whose solution is the matrix of ``op``.

    It is posed over R[e_1..e_N]: every pairing is a symmetric polynomial,
    far smaller in the elementary basis, and the pairings come in it.  The
    ``phi0`` entries are their constant terms.  Rows are indexed by the
    pairing partner G_j, columns by the generator coordinates: ``M`` is the
    transpose of the Gram entries and ``B`` of the image pairings.
    """
    sums = _movie_sums(gens.movies, gens)
    n = len(sums)
    P = _pairings(sums + [apply_operator(op, params, S) for S in sums], gens, basis)
    M = [[_base_entry(P[k][j], gens.base) for k in range(n)] for j in range(n)]
    B = [[_base_entry(P[n + k][j], gens.base) for k in range(n)] for j in range(n)]
    return M, B


def induced_action(op: str, params: ActionParams, gens: Presentation) -> InducedAction:
    """The matrix of an operator on the span of a generator family.

    Solves the pairing equations exactly and certifies well-definedness:
    when the Gram matrix is degenerate, the operator must map the pairing
    kernel into itself, otherwise :class:`NotWellDefined` is raised.

    The system is solved by :func:`_lifted_solve` from its constant terms
    ``M_0`` when it can certify Bareiss's answer, as on every standard
    presentation; otherwise by :func:`_fraction_free_solve`.  Both give the
    same matrix, and every error comes from the Bareiss path, so it reads
    the same whichever path ran.  Only the solution is converted back to
    ``X1..XN``, by the converter of the pairings.
    """
    parse_operator(op)
    if params.N != gens.N or params.ring != gens.ring:
        raise InputError("operator parameters and presentation disagree on ring/N")
    if gens.base == "phi0" and op != "d":
        raise InputError(
            "the non-equivariant base only carries the p-differential"
        )
    basis = ElementaryBasis(xvars(gens.N))
    M, B = _induced_system(op, params, gens, basis)
    # The lifted solve returns Bareiss's X and its kernel up to scaling, to
    # which the kernel check is blind.  Whatever it cannot certify, a moved
    # kernel vector included, Bareiss solves again: a system without a
    # polynomial solution raises there, before the kernel is checked, and a
    # moved vector is reported in Bareiss's scaling.
    solved = _lifted_solve(M, B)
    if solved is None or _moved_kernel_vector(op, basis, M, B, solved[1]) is not None:
        solved = _fraction_free_solve(M, B)
        vec = _moved_kernel_vector(op, basis, M, B, solved[1])
        if vec is not None:
            raise NotWellDefined(
                f"operator {op} moves a pairing-kernel vector out of the"
                f" kernel (generator coordinates"
                f" {[basis.from_e(e) for e in vec]})"
            )
    _, kernel, X = solved
    if kernel:
        cert = CheckReport(
            True, None, f"kernel of dimension {len(kernel)} is preserved"
        )
    else:
        cert = CheckReport(True, None, "pairing nondegenerate; kernel trivial")
    solution = tuple(tuple(row) for row in X)
    return InducedAction(op, _expanded(solution, basis), cert, solution, gens)


def _moved_kernel_vector(
    op: str, basis: ElementaryBasis, M: Matrix, B: Matrix, kernel: list[list[MultiPoly]]
) -> list[MultiPoly] | None:
    """The first vector of ``kernel`` that the operator moves out of the
    pairing kernel, or None.

    A vector V of coefficients in the pairing kernel must stay in the
    kernel, B V + M L(V) = 0: the operator acts on the generators by the
    pairing columns and on the coefficients by the base derivation L.  The
    check is blind to the scaling of each kernel vector.
    """
    if not kernel:
        return None
    derive = _elementary_derivation(op, basis, M[0][0].ring)
    for vec in kernel:
        V = tuple((e,) for e in vec)
        if not mat_is_zero(mat_add(mat_mul(B, V), mat_mul(M, derive(V)))):
            return vec
    return None


# ---------------------------------------------------------------------------
# Operator algebra on coordinates
# ---------------------------------------------------------------------------
#
# The operators are derivations: they move the generators (the matrix
# part) *and* differentiate base coefficients (the derivation part).  So
# ``a`` after a solved matrix ``S`` is ``a.solution * S + L_a(S)``, and
# compositions, brackets and powers all take this one step.  It runs on
# the solved matrices in ``e_1..e_N``, and only the result is expanded in
# ``X1..XN``.  On ``phi0`` the entries are constants, where ``L_a`` is 0.


def base_derivation(op: str):
    """The action ``c * L_n`` of an operator on base-ring coefficients."""
    n, c = operator_index(parse_operator(op))
    return lambda q: witt_act(n, q) * c


def _elementary_derivation(op: str, basis: ElementaryBasis, ring: CoefRing):
    """:func:`base_derivation` on every entry of a matrix in ``e_1..e_N``, by
    the chain rule ``d(q) = sum_k dq/de_k * d(e_k)``, so 0 on constants;
    each ``d(e_k)`` is converted once."""
    d = base_derivation(op)
    images = [
        basis.to_e(d(elementary(ring, basis.vars, k))) for k in range(1, len(basis.vars) + 1)
    ]

    def deriv(q: MultiPoly) -> MultiPoly:
        return _sum_of_products(q.ring, q.vars, (
            (q.derivative(name), image)
            for i, (name, image) in enumerate(zip(q.vars, images))
            if any(e[i] for e in q.terms)
        ))

    return lambda S: tuple(tuple(deriv(e) for e in row) for row in S)


def _after(a: InducedAction, basis: ElementaryBasis):
    """The step ``S -> a.solution * S + L_a(S)``: ``a`` after ``S``."""
    derive = _elementary_derivation(a.op, basis, a.gens.ring)
    return lambda S: mat_add(mat_mul(a.solution, S), derive(S))


def _shared_basis(a: InducedAction, b: InducedAction) -> ElementaryBasis:
    """The converter of two operators' solved matrices, which must share
    one presentation."""
    if a.gens != b.gens:
        raise InputError("operators are expressed in different presentations")
    return ElementaryBasis(xvars(a.gens.N))


def operator_compose(a: InducedAction, b: InducedAction) -> Matrix:
    """Matrix of ``a`` after ``b`` in the same generator family."""
    basis = _shared_basis(a, b)
    return _expanded(_after(a, basis)(b.solution), basis)


def operator_commutator(a: InducedAction, b: InducedAction) -> Matrix:
    basis = _shared_basis(a, b)
    ab, ba = _after(a, basis)(b.solution), _after(b, basis)(a.solution)
    return _expanded(mat_sub(ab, ba), basis)


def operator_power(a: InducedAction, k: int) -> Matrix:
    if k < 1:
        raise InputError("operator power needs a positive exponent")
    basis = ElementaryBasis(xvars(a.gens.N))
    step = _after(a, basis)
    out = a.solution
    for _ in range(k - 1):
        out = step(out)
    return _expanded(out, basis)


# ---------------------------------------------------------------------------
# Local rank relations
# ---------------------------------------------------------------------------


#: Relation -> (the generator families of :data:`WEB_FAMILIES` it ranks, and
#: its predicted graded rank as a function of ``N, a, b, c``).  A family takes
#: as many of ``a, b, c`` as its argument count, in that order.
MOY_RELATIONS = {
    "circle": (("circle",), lambda N, a, b, c: qbinom_laurent(N, a)),
    "digon": (("digon",), lambda N, a, b, c: laurent_mul(
        qbinom_laurent(a + b, a), qbinom_laurent(N, a + b))),
    "bad_digon": (("bad_digon",), lambda N, a, b, c: laurent_mul(
        qbinom_laurent(N - a, b), qbinom_laurent(N, a))),
    "assoc": (("chain_left", "chain_right"), lambda N, a, b, c: laurent_mul(
        laurent_mul(qbinom_laurent(a + b + c, a + b), qbinom_laurent(a + b, a)),
        qbinom_laurent(N, a + b + c))),
    "square": (("necklace",), lambda N, a, b, c: laurent_add(
        laurent_mul(quantum_integer(N), quantum_integer(N)),
        laurent_mul(quantum_integer(N - 2), quantum_integer(N)))),
    "bad_square": ((), lambda N, a, b, c: laurent_mul(
        laurent_mul(quantum_integer(2), quantum_integer(2)), qbinom_laurent(N, 2))),
}


def moy_check(
    relation: str,
    N: int,
    a: int = 1,
    b: int = 1,
    c: int = 1,
    ring: CoefRing = ZZ,
    base: str = "equivariant",
    trials: int = 3,
    seed: int = 0,
) -> CheckReport:
    """Check one of the local graded-rank relations of web state spaces.

    :data:`MOY_RELATIONS` names, for each relation, the generator families
    of :data:`WEB_FAMILIES` it ranks (all but ``bad_digon`` are grown by one
    split-circle builder) and its predicted graded rank; only the requested
    relation's prediction is computed, after its families are ranked.
    ``circle``, ``digon``, ``bad_digon`` and ``square`` compare one family's
    rank with the prediction, ``assoc`` both bracketings' ranks.
    Each family is ranked by :func:`presentation_rank`, which pairs only the
    degree-0 band unless its ``phi0`` matrix is singular.
    ``bad_square`` is outside the move family used by the presentations
    (its defining foams are not built from the spherical moves), so it ranks
    no family: only the numeric identity between its prediction and the
    ``square`` prediction is verified, for ``N >= 2``, and the report says
    so.  ``N`` and ``trials`` below 1 are rejected for every relation.
    """
    if relation not in MOY_RELATIONS:
        raise InputError(f"unknown relation {relation!r}")
    if N < 1:
        raise InputError(f"N must be >= 1, got {N}")
    if trials < 1:
        raise InputError("at least one specialization is required")
    families, predict = MOY_RELATIONS[relation]
    if relation == "bad_square":
        if N < 2:
            raise InputError("the ladder web needs N >= 2")
        lhs, rhs = predict(N, a, b, c), MOY_RELATIONS["square"][1](N, a, b, c)
        ok = lhs == rhs
        return CheckReport(
            ok,
            None if ok else (lhs, rhs),
            "state-space comparison skipped: the defining foams are outside"
            " the move family of these presentations; rank identity"
            + (" holds" if ok else " fails"),
        )
    ranks = []
    for name in families:
        arity, build = WEB_FAMILIES[name]
        gens = build(*(a, b, c)[:arity], N, ring, base)
        ranks.append(presentation_rank(gens, trials=trials, seed=seed))
    want = predict(N, a, b, c)
    if relation == "assoc":
        left, right = ranks
        if left != right or left != want:
            return CheckReport(False, (left, right, want), "bracketing ranks disagree")
        return CheckReport(True, None, f"both bracketings have rank {want}")
    (got,) = ranks
    if got != want:
        return CheckReport(False, (got, want), f"{relation}: rank mismatch")
    return CheckReport(True, None, f"{relation}: rank {want}")

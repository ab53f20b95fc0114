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

import random
from dataclasses import dataclass, field
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
from .foameval import CheckReport, _family_values, degree, evaluate
from .polyring import (
    CoefRing,
    ElementaryBasis,
    Laurent,
    MultiPoly,
    Scalar,
    SymPoly,
    ZZ,
    _laurent_clean,
    elementary,
    evars,
    facet_vars,
    kill_equivariance,
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
    "is_zero_in_statespace",
    "induced_action",
    "moy_check",
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
    keeps values as polynomials in the full alphabet, ``"phi0"`` kills the
    positive-degree symmetric part so values become scalars.
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
    web = movies[0].output_web
    for m in movies:
        if m.output_web != web:
            raise InputError("presentation movies do not share a boundary web")
        if not m.input_web.is_empty():
            raise InputError("presentation movies must start at the empty web")
    raw = tuple(degree(m, N) for m in movies)
    # The degree of an open movie is additive under gluing only up to a
    # constant depending on the boundary web; calibrate it so that pairing
    # two generators is homogeneous of the sum of their degrees.
    offset = degree(compose(movies[0], mirror(movies[0])), N) - 2 * raw[0]
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


def circle_presentation(
    a: int, N: int, ring: CoefRing = ZZ, base: str = "equivariant"
) -> Presentation:
    """Cups decorated by elementary products indexed by the (N-a) x a box."""
    if not 0 < a <= N:
        raise InputError(f"circle thickness {a} out of range for N={N}")
    movies = []
    for mu in box_partitions(N - a, a):
        b = MovieBuilder()
        c = b.cup(a)
        b.decorate(c, elementary_product(ring, a, mu))
        movies.append(b.movie())
    return presentation(movies, N, ring, base)


def theta_presentation(
    a: int, b: int, N: int, ring: CoefRing = ZZ, base: str = "equivariant"
) -> Presentation:
    """The two-vertex web read as a thick circle with a pinched-in bigon."""
    _require_thicknesses(a, b)
    if a + b > N:
        raise InputError(f"total thickness {a + b} exceeds N={N}")
    movies = []
    for lam in box_partitions(N - a - b, a + b):
        for mu in box_partitions(b, a):
            bld = MovieBuilder()
            c = bld.cup(a + b)
            bld.decorate(c, elementary_product(ring, a + b, lam))
            d = bld.digon_cup(c, a, b)
            bld.decorate(d.edge_a, elementary_product(ring, a, mu))
            movies.append(bld.movie())
    return presentation(movies, N, ring, base)


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
    movies = []
    for lam in box_partitions(N - 2, 2):
        for mu in box_partitions(1, 1):
            for nu in box_partitions(1, 1):
                bld = MovieBuilder()
                c = bld.cup(2)
                bld.decorate(c, elementary_product(ring, 2, lam))
                d1 = bld.digon_cup(c, 1, 1)
                bld.decorate(d1.edge_a, elementary_product(ring, 1, mu))
                d2 = bld.digon_cup(d1.out_low, 1, 1)
                bld.decorate(d2.edge_a, elementary_product(ring, 1, nu))
                movies.append(bld.movie())
    return presentation(movies, N, ring, base)


def chain_presentation(
    order: str, a: int, b: int, c: int, N: int,
    ring: CoefRing = ZZ, base: str = "equivariant",
) -> Presentation:
    """A thick circle split twice, with the two bracketings of (a, b, c)."""
    _require_thicknesses(a, b, c)
    s = a + b + c
    if s > N:
        raise InputError(f"total thickness {s} exceeds N={N}")
    movies = []
    if order == "left":
        pairs = [
            (lam, mu, nu)
            for lam in box_partitions(N - s, s)
            for mu in box_partitions(c, a + b)
            for nu in box_partitions(b, a)
        ]
    elif order == "right":
        pairs = [
            (lam, mu, nu)
            for lam in box_partitions(N - s, s)
            for mu in box_partitions(b + c, a)
            for nu in box_partitions(c, b)
        ]
    else:
        raise InputError(f"unknown bracketing {order!r}")
    for lam, mu, nu in pairs:
        bld = MovieBuilder()
        c0 = bld.cup(s)
        bld.decorate(c0, elementary_product(ring, s, lam))
        if order == "left":
            d1 = bld.digon_cup(c0, a + b, c)
            bld.decorate(d1.edge_a, elementary_product(ring, a + b, mu))
            d2 = bld.digon_cup(d1.edge_a, a, b)
            bld.decorate(d2.edge_a, elementary_product(ring, a, nu))
        else:
            d1 = bld.digon_cup(c0, a, b + c)
            bld.decorate(d1.edge_a, elementary_product(ring, a, mu))
            d2 = bld.digon_cup(d1.edge_b, b, c)
            bld.decorate(d2.edge_a, elementary_product(ring, b, nu))
        movies.append(bld.movie())
    return presentation(movies, N, ring, base)


# ---------------------------------------------------------------------------
# Pairing and Gram matrices
# ---------------------------------------------------------------------------


def pair_movies(F: Movie, G: Movie, N: int, ring: CoefRing = ZZ) -> MultiPoly:
    """Total evaluation of ``F`` composed with the time reversal of ``G``."""
    return evaluate(compose(F, mirror(G)), N, ring).value


def _base_entry(value: MultiPoly, base: str) -> MultiPoly:
    """A checked pairing value over ``base``; the ``phi0`` base keeps its
    constant term, the same in ``X1..XN`` and in ``e_1..e_N``."""
    if base == "phi0":
        return MultiPoly.const(value.ring, (), value.constant_value())
    return value


Matrix = tuple[tuple[MultiPoly, ...], ...]


def _basis(base: str, N: int) -> ElementaryBasis | None:
    """The converter of values stored over ``base``, or None over ``phi0``,
    where they are constants."""
    return ElementaryBasis(xvars(N)) if base == "equivariant" else None


def _expanded(S: Matrix, basis: ElementaryBasis | None) -> Matrix:
    """A matrix stored in ``e_1..e_N`` in ``X1..XN``."""
    if basis is None:
        return S
    return tuple(tuple(basis.from_e(e) for e in row) for row in S)


@dataclass(frozen=True)
class GramMatrix:
    """Matrix of pairings between the generators of one family.

    ``e_entries`` are the pairings as computed, in ``e_1..e_N`` (variables
    ``E1..EN``) on the equivariant base and constants on ``phi0``.
    """

    e_entries: Matrix
    row_degrees: tuple[int, ...]
    N: int
    ring: CoefRing
    base: str

    @property
    def entries(self) -> Matrix:
        """The pairings in ``X1..XN``; expanded on every read."""
        return _expanded(self.e_entries, _basis(self.base, self.N))

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
    rows: Sequence[FoamSum], gens: Presentation, basis: ElementaryBasis
) -> list[list[MultiPoly]]:
    """Entry ``[i][j]`` pairs ``rows[i]`` with ``gens.movies[j]``, equivariantly,
    as a polynomial in ``e_1..e_N`` of ``basis``.

    A row is paired as its skeleton composed with the mirrored generator,
    its terms' dot shapes placed where they sit on the skeleton; no term
    becomes a movie.  Each (skeleton, generator) composite is built once and
    shared by the rows over that skeleton, and all pairings go through one
    :func:`~foamlab.foameval.evaluate_family` call (in ``e_1..e_N``).
    """
    mirrors = [mirror(G) for G in gens.movies]
    composites: dict[_Skeleton, list[Movie]] = {}
    foams: list = []
    for row in rows:
        skel = row.skeleton
        if skel.ring != gens.ring or skel.N != gens.N:
            raise InputError(
                f"formal sum over {skel.ring} with N={skel.N}, presentation over"
                f" {gens.ring} with N={gens.N}"
            )
        if skel not in composites:
            composites[skel] = [compose(skel.movie, Gr) for Gr in mirrors]
        terms = [(c, tuple((*skel.rep[f], s) for f, s in d)) for c, d in row.terms]
        foams.extend((closed, terms) for closed in composites[skel])
    values = _family_values(foams, gens.N, gens.ring, basis)
    n = len(mirrors)
    return [values[i * n:(i + 1) * n] for i in range(len(rows))]


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


def _rank_once(G: GramMatrix, rng: random.Random, p: int) -> Laurent:
    n, m = G.shape
    vs = evars(G.N)
    values = dict(zip(vs, rng.sample(range(1, p), len(vs))))
    spec = [
        [_specialize(e, values, p) for e in row] for row in G.e_entries
    ]
    order = sorted(range(n), key=lambda i: (G.row_degrees[i], i))
    pivots: list[tuple[int, list[int]]] = []  # (pivot column, normalized row)
    rank: Laurent = {}
    for i in order:
        row = list(spec[i])
        for col, prow in pivots:
            f = row[col]
            if f:
                row = [(x - f * y) % p for x, y in zip(row, prow)]
        col = next((j for j in range(m) if row[j]), None)
        if col is None:
            continue
        inv = pow(row[col], -1, p)
        pivots.append((col, [x * inv % p for x in row]))
        d = G.row_degrees[i]
        rank[d] = rank.get(d, 0) + 1
    return _laurent_clean(rank)


def graded_rank(G: GramMatrix, trials: int = 3, seed: int = 0) -> Laurent:
    """Graded rank of the pairing, by repeated random specialization.

    Each trial specializes ``e_1..e_N`` (variables ``E1..EN`` of the stored
    entries) to distinct random values in a prime field of size > 2**31
    and row-reduces with pivots chosen greedily in generator-degree order;
    the contributions appear as ``q^degree``.  Disagreeing trials raise
    :class:`RankUnstable` rather than averaging.  The ``e_1..e_N`` are
    algebraically independent, so a minor that is nonzero in ``X1..XN`` is
    a nonzero polynomial in ``E1..EN``.

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
    This assumes no such minor vanishes identically mod ``p``.
    """
    if G.ring.kind not in ("Z", "Q"):
        raise WrongRing("graded ranks are computed over Z or Q coefficients")
    if trials < 1:
        raise InputError("at least one specialization is required")
    rng = random.Random(seed)
    results = [_rank_once(G, rng, _RANK_PRIME) for _ in range(trials)]
    if any(r != results[0] for r in results[1:]):
        raise RankUnstable(f"specializations disagree: {results}")
    return results[0]


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
        return all(_base_entry(e, gens.base).is_zero() for e in row)
    # a polynomial coefficient need not be symmetric: the row is summed in X1..XN
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
    if gens.base == "phi0":
        return all(kill_equivariance(e) == 0 for e in row)
    return all(e.is_zero() for e in row)


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
    n, k, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = A[i][0] * B[0][j]
            for t in range(1, k):
                if not (A[i][t].is_zero() or B[t][j].is_zero()):
                    acc = acc + A[i][t] * B[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


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
    generator ``i``; composition of operators is matrix product.
    ``solution`` is the same matrix as solved: on the equivariant base its
    entries are in ``e_1..e_N`` (variables ``E1..EN``) and ``matrix`` is its
    expansion in ``X1..XN``; on the ``phi0`` base both are the constants.
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


def induced_action(op: str, params: ActionParams, gens: Presentation) -> InducedAction:
    """The matrix of an operator on the span of a generator family.

    Solves the pairing equations exactly and certifies well-definedness:
    when the Gram matrix is degenerate, the operator must map the pairing
    kernel into itself, otherwise :class:`NotWellDefined` is raised.
    """
    parse_operator(op)
    if params.N != gens.N or params.ring != gens.ring:
        raise InputError("operator parameters and presentation disagree on ring/N")
    if gens.base == "phi0" and op != "d":
        raise InputError(
            "the non-equivariant base only carries the p-differential"
        )
    sums = _movie_sums(gens.movies, gens)
    n = len(sums)
    # The system is solved over R[e_1..e_N]: every pairing is a symmetric
    # polynomial, far smaller in the elementary basis, and the pairings come
    # in it.  The ``phi0`` entries are their constant terms.  Only the
    # solution is converted back, by the converter of the pairings.
    expand = _basis(gens.base, gens.N)
    basis = expand or ElementaryBasis(xvars(gens.N))
    P = _pairings(sums + [apply_operator(op, params, S) for S in sums], gens, basis)
    # rows of the system are indexed by the pairing partner G_j, columns by
    # the generator coordinates, i.e. the transpose of the Gram entries (the
    # generator rows of P) and of the image pairings (the rows after them)
    M = [[_base_entry(P[k][j], gens.base) for k in range(n)] for j in range(n)]
    B = [[_base_entry(P[n + k][j], gens.base) for k in range(n)] for j in range(n)]
    # A system without a polynomial solution raises here, before the kernel
    # is checked; the operator is not well defined either way.
    _, kernel, X = _fraction_free_solve(M, B)
    if kernel:
        # A vector of coefficients in the pairing kernel must stay in the
        # kernel; the operator acts on its coefficients by the base
        # derivation and on the generators by the pairing columns.  The
        # check is blind to the scaling of each kernel vector.
        deriv = _elementary_derivation(op, expand, gens.ring) if expand else None
        for vec in kernel:
            dvec = [deriv(e) for e in vec] if deriv is not None else None
            for j in range(n):
                acc = MultiPoly.zero(M[0][0].ring, M[0][0].vars)
                for k in range(n):
                    acc = acc + B[j][k] * vec[k]
                    if dvec is not None:
                        acc = acc + M[j][k] * dvec[k]
                if not acc.is_zero():
                    raise NotWellDefined(
                        f"operator {op} moves a pairing-kernel vector out of the"
                        f" kernel (generator coordinates"
                        f" {list(_expanded((vec,), expand)[0])})"
                    )
        cert = CheckReport(
            True, None, f"kernel of dimension {len(kernel)} is preserved"
        )
    else:
        cert = CheckReport(True, None, "pairing nondegenerate; kernel trivial")
    solution = tuple(tuple(row) for row in X)
    return InducedAction(op, _expanded(solution, expand), cert, solution, gens)


# ---------------------------------------------------------------------------
# Operator algebra on coordinates
# ---------------------------------------------------------------------------
#
# On the equivariant base the operators are derivations: they move the
# generators (the matrix part) *and* differentiate base coefficients (the
# derivation part).  Composition is therefore matrix product plus the
# derivation applied entrywise, and operator identities must be checked
# with these connection-style formulas.  Over the ``phi0`` base the
# derivation part vanishes and plain matrix algebra applies.  Both run on
# the solved matrices, in ``e_1..e_N`` on the equivariant base, and only the
# result is expanded in ``X1..XN``.


def base_derivation(op: str):
    """The action ``c * L_n`` of an operator on base-ring coefficients."""
    n, c = operator_index(parse_operator(op))
    return lambda q: witt_act(n, q) * c


def _elementary_derivation(op: str, basis: ElementaryBasis, ring: CoefRing):
    """:func:`base_derivation` on polynomials in ``e_1..e_N``, by the chain
    rule ``d(q) = sum_k dq/de_k * d(e_k)``; each ``d(e_k)`` is converted
    once."""
    d = base_derivation(op)
    images = [
        basis.to_e(d(elementary(ring, basis.vars, k))) for k in range(1, len(basis.vars) + 1)
    ]

    def deriv(q: MultiPoly) -> MultiPoly:
        acc = MultiPoly.zero(q.ring, q.vars)
        for i, (name, image) in enumerate(zip(q.vars, images)):
            if any(e[i] for e in q.terms):
                acc = acc + q.derivative(name) * image
        return acc

    return deriv


def _derivative(a: InducedAction, basis: ElementaryBasis | None):
    """The base derivation of ``a`` on every entry of a solved matrix, or
    None over ``phi0``."""
    if basis is None:
        return None
    deriv = _elementary_derivation(a.op, basis, a.gens.ring)
    return lambda S: tuple(tuple(deriv(e) for e in row) for row in S)


def _compose(a: InducedAction, b: InducedAction, basis: ElementaryBasis | None) -> Matrix:
    """:func:`operator_compose` on the solved matrices."""
    if a.gens != b.gens:
        raise InputError("operators are expressed in different presentations")
    out = mat_mul(a.solution, b.solution)
    derive = _derivative(a, basis)
    if derive is not None:
        out = mat_add(out, derive(b.solution))
    return out


def operator_compose(a: InducedAction, b: InducedAction) -> Matrix:
    """Matrix of ``a`` after ``b`` in the same generator family."""
    basis = _basis(a.base, a.gens.N)
    return _expanded(_compose(a, b, basis), basis)


def operator_commutator(a: InducedAction, b: InducedAction) -> Matrix:
    basis = _basis(a.base, a.gens.N)
    return _expanded(mat_sub(_compose(a, b, basis), _compose(b, a, basis)), basis)


def operator_power(a: InducedAction, k: int) -> Matrix:
    if k < 1:
        raise InputError("operator power needs a positive exponent")
    basis = _basis(a.base, a.gens.N)
    derive = _derivative(a, basis)
    out = a.solution
    for _ in range(k - 1):
        step = mat_mul(a.solution, out)
        if derive is not None:
            step = mat_add(step, derive(out))
        out = step
    return _expanded(out, basis)


# ---------------------------------------------------------------------------
# Local rank relations
# ---------------------------------------------------------------------------


def _rank_of(p: Presentation, trials: int, seed: int) -> Laurent:
    return graded_rank(gram_matrix(p), trials=trials, seed=seed)


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

    ``circle``, ``digon``, ``bad_digon``, ``assoc`` and ``square`` compare a
    computed graded rank against the predicted Laurent polynomial;
    ``bad_square`` is outside the move family used by the presentations
    (its defining foams are not built from the spherical moves), so only
    the numeric rank identity is verified and the report says so.
    """
    if relation == "circle":
        got = _rank_of(circle_presentation(a, N, ring, base), trials, seed)
        want = qbinom_laurent(N, a)
    elif relation == "digon":
        got = _rank_of(theta_presentation(a, b, N, ring, base), trials, seed)
        want = laurent_mul(qbinom_laurent(a + b, a), qbinom_laurent(N, a + b))
    elif relation == "bad_digon":
        got = _rank_of(zipped_presentation(a, b, N, ring, base), trials, seed)
        want = laurent_mul(qbinom_laurent(N - a, b), qbinom_laurent(N, a))
    elif relation == "assoc":
        left = _rank_of(chain_presentation("left", a, b, c, N, ring, base), trials, seed)
        right = _rank_of(
            chain_presentation("right", a, b, c, N, ring, base), trials, seed
        )
        want = laurent_mul(
            laurent_mul(qbinom_laurent(a + b + c, a + b), qbinom_laurent(a + b, a)),
            qbinom_laurent(N, a + b + c),
        )
        if left != right or left != want:
            return CheckReport(
                False,
                (left, right, want),
                "bracketing ranks disagree",
            )
        return CheckReport(True, None, f"both bracketings have rank {want}")
    elif relation == "square":
        got = _rank_of(necklace_presentation(N, ring, base), trials, seed)
        circ = quantum_integer(N)
        want = laurent_add(
            laurent_mul(circ, circ),
            laurent_mul(quantum_integer(N - 2), circ),
        )
    elif relation == "bad_square":
        lhs = laurent_mul(
            laurent_mul(quantum_integer(2), quantum_integer(2)),
            qbinom_laurent(N, 2),
        )
        circ = quantum_integer(N)
        rhs = laurent_add(
            laurent_mul(circ, circ), laurent_mul(quantum_integer(N - 2), circ)
        )
        ok = lhs == rhs
        return CheckReport(
            ok,
            None if ok else (lhs, rhs),
            "state-space comparison skipped: the defining foams are outside"
            " the move family of these presentations; rank identity"
            + (" holds" if ok else " fails"),
        )
    else:
        raise InputError(f"unknown relation {relation!r}")
    if got != want:
        return CheckReport(False, (got, want), f"{relation}: rank mismatch")
    return CheckReport(True, None, f"{relation}: rank {want}")

"""Exact evaluation of closed decorated foams and their degree.

A closed foam with facets colored by pigment subsets of {1..N} evaluates to
a signed ratio of products in Z[X_1..X_N]; summed over all admissible
colorings the result is a symmetric polynomial whose degree is determined
by the topology and the decorations.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import polyring
from .errors import (
    InputError,
    NonHomogeneous,
    NotEquivariant,
    NotInSymmetricSubring,
    NotPolynomial,
    NotSymmetric,
    OddEuler,
    PatternMismatch,
)
from .foamcore import (
    Binding,
    Cap,
    Coloring,
    Cup,
    Decorate,
    EulerWalk,
    Facet,
    FoamComplex,
    Movie,
    Unzip,
    Web,
    Zip,
    compile_movie,
    enumerate_colorings,
    Decorations,
    _components,
    _split_movies,
)
from .polyring import (
    CoefRing,
    ElementaryBasis,
    MultiPoly,
    RatFun,
    Scalar,
    SymPoly,
    ZZ,
    _lifts,
    facet_vars,
    is_symmetric,
    ratfun_sum,
    xvars,
)

# ---------------------------------------------------------------------------
# facet decorations
# ---------------------------------------------------------------------------


def _canonical_decoration(dec: SymPoly, a: int, N: int, ring: CoefRing) -> MultiPoly:
    """Rename a decoration of a thickness-``a`` facet onto the x/y alphabet."""
    vs = facet_vars(a, N - a)
    blocks = dec.blocks
    if len(blocks) == 1:
        inner, outer = blocks[0], 0
    elif len(blocks) == 2:
        inner, outer = blocks
    else:
        raise InputError(f"decoration has {len(blocks)} blocks; expected 1 or 2")
    if inner != a:
        raise InputError(f"decoration inner block {inner} != facet thickness {a}")
    if outer not in (0, N - a):
        raise InputError(f"decoration outer block {outer} incompatible with N={N}, a={a}")
    poly = dec.poly._remapped(vs, range(a + outer))
    if poly.ring != ring:
        poly = poly.map_coefficients(ring, ring.normalize)
    return poly


def _at_coloring(p: MultiPoly, color: frozenset[int], N: int) -> MultiPoly:
    """A canonical facet polynomial on (X_color, X_complement).

    ``x_k`` becomes the k-th pigment of the color and ``y_k`` the k-th
    pigment outside it, both in increasing order.
    """
    inner = sorted(color)
    outer = [i for i in range(1, N + 1) if i not in color]
    return p._remapped(xvars(N), [i - 1 for i in inner + outer])


def _facet_decorations(
    placed: Iterable[tuple[Facet, SymPoly]], N: int, ring: CoefRing
) -> dict[str, MultiPoly]:
    """Decorations multiplied per facet on the canonical alphabet.

    ``placed`` yields ``(facet, decoration)``: a compiled foam's facets with
    their own decorations, or :func:`_placed_on` decorations of a stripped
    movie.  Each facet's product is keyed by its id, in the order the
    facets are first reached.
    """
    out: dict[str, MultiPoly] = {}
    for f, dec in placed:
        p = _canonical_decoration(dec, f.thickness, N, ring)
        out[f.id] = out[f.id] * p if f.id in out else p
    return out


def _placed_on(
    F: FoamComplex, decorations: Iterable[tuple[int, str, SymPoly]]
) -> Iterator[tuple[Facet, SymPoly]]:
    """Each decoration placed as :func:`_strip_decorations` returns it, on
    the facet of ``F``, its undecorated complex, that carries it."""
    for t, edge, dec in decorations:
        f = F.edge_facets[t].get(edge)
        if f is None:
            raise PatternMismatch(f"edge {edge} not in slice")
        yield F.facets[f], dec


def _decoration_degree(dec: SymPoly) -> int:
    if not dec.poly.is_homogeneous():
        raise NonHomogeneous(f"decoration {dec.poly}")
    return dec.poly.qdegree()


# ---------------------------------------------------------------------------
# dot shapes
# ---------------------------------------------------------------------------

# A dot shape is a pair of weakly-decreasing exponent tuples, one per block
# of a facet alphabet (inside, outside); it stands for the monomial
# symmetric decoration of that orbit.  A shape map assigns shapes to facets
# in sorted facet order; a facet it leaves out carries no dots.
DotShape = tuple[tuple[int, ...], tuple[int, ...]]
DecMap = tuple[tuple[str, DotShape], ...]


def _orbit_decompose(poly: MultiPoly, a: int) -> dict[DotShape, Scalar]:
    """Expand a block-symmetric polynomial in the monomial-orbit basis.

    Each orbit is represented by its weakly-decreasing exponent pair; by
    block symmetry the coefficient of the representative monomial is the
    orbit coefficient.
    """
    out: dict[DotShape, Scalar] = {}
    for exp in poly.terms:
        key = (
            tuple(sorted(exp[:a], reverse=True)),
            tuple(sorted(exp[a:], reverse=True)),
        )
        if key not in out:
            out[key] = poly.terms[key[0] + key[1]]
    return out


def _orbit_poly(ring: CoefRing, shape: DotShape) -> MultiPoly:
    """The monomial symmetric polynomial of a dot shape on the x/y alphabet."""
    lam, mu = shape
    terms = {
        lx + ly: 1
        for lx in polyring._distinct_permutations(lam)
        for ly in polyring._distinct_permutations(mu)
    }
    return MultiPoly(ring, facet_vars(len(lam), len(mu)), terms)


def _dots(shapes: Iterable[DotShape]) -> int:
    """The number of dots of some shapes: the sum of their exponents."""
    return sum(sum(lam) + sum(mu) for lam, mu in shapes)


def _dot_shapes(
    coef: Scalar,
    decs: Mapping[str, MultiPoly],
    thickness: Mapping[str, int],
    ring: CoefRing,
) -> Iterator[tuple[Scalar, DecMap]]:
    """Split ``coef`` times per-facet decorations into dot-shape maps.

    ``decs`` maps facets to block-symmetric polynomials on the canonical
    alphabet.  Yields ``(coefficient, shape map)`` once per choice of one
    orbit per facet, with blank shapes left out of the map; a zero
    coefficient or decoration yields nothing.
    """
    facets = sorted(decs)
    if coef == 0 or any(decs[f].is_zero() for f in facets):
        return
    pieces = [list(_orbit_decompose(decs[f], thickness[f]).items()) for f in facets]
    for choice in itertools.product(*pieces):
        c = coef
        key = []
        for f, (shape, oc) in zip(facets, choice):
            c = ring.mul(c, oc)
            if any(shape[0]) or any(shape[1]):
                key.append((f, shape))
        if c != 0:
            yield c, tuple(key)


# ---------------------------------------------------------------------------
# colored evaluation
# ---------------------------------------------------------------------------


class _WalkTables:
    """What :func:`colored_eval` keeps on one walk for one N and ring.

    ``one`` is the numerator of a coloring with no factor.  ``powers`` maps
    ``(i, j, k)`` to ``(X_i - X_j)^k``.  ``decorated`` maps each decorated
    facet to its decorations' product on the canonical alphabet, or is None
    before the first coloring reaches it.  ``at`` maps ``(facet, color)`` to
    that product put at the color.
    """

    __slots__ = ("one", "powers", "decorated", "at")

    def __init__(self, N: int, ring: CoefRing) -> None:
        self.one = MultiPoly.const(ring, xvars(N), 1)
        self.powers: dict[tuple[int, int, int], MultiPoly] = {}
        self.decorated: dict[str, MultiPoly] | None = None
        self.at: dict[tuple[str, frozenset[int]], MultiPoly] = {}


def colored_eval(
    F: FoamComplex,
    c: Coloring,
    N: int,
    ring: CoefRing = ZZ,
    walk: EulerWalk | None = None,
) -> RatFun:
    """The signed rational value of one coloring of a closed foam.

    Every Euler characteristic and seam sign comes from one read of
    ``walk``, the foam's :class:`EulerWalk`; a caller that colors ``F``
    many times builds it once and passes it, and without it a walk is built
    for this coloring.  The sign is ``(-1)`` to the sum of ``i * chi_i / 2``
    and of the positive separating circles of every pair, and pair
    ``(i, j)`` contributes the factor ``(X_i - X_j)^(-chi_ij / 2)``.
    ``OddEuler`` is raised for the first odd ``chi_i``, then for each pair
    in lexicographic order ``SeamSignInconsistent`` before an odd
    ``chi_ij``.  Each facet's decorations are multiplied on the canonical
    alphabet when the first coloring gets past its pairs (so a foam with no
    colorings reads none), and then put at the facet's color.  The walk
    keeps, per N and ring, those products, each product at each color it
    was put at, and each power of a difference: a walk computes each of
    them once.
    """
    if walk is None:
        walk = EulerWalk(F)
    chis, pairs = walk.read(walk.types(c, N))
    sign_exp = 0
    for i, chi_i in enumerate(chis, 1):
        if chi_i % 2:
            raise OddEuler(f"pigment {i}: surface has odd Euler characteristic {chi_i}")
        sign_exp += i * (chi_i // 2)

    tables = walk.canonical.get((N, ring))
    if tables is None:
        tables = walk.canonical[(N, ring)] = _WalkTables(N, ring)
    powers = tables.powers
    factors: list[MultiPoly] = []
    den: dict[tuple[int, int], int] = {}
    for i, j, chi_ij, theta_plus in pairs:
        if chi_ij % 2:
            raise OddEuler(
                f"pigments ({i},{j}): bichrome surface has odd Euler "
                f"characteristic {chi_ij}"
            )
        sign_exp += theta_plus
        q = chi_ij // 2
        if q > 0:
            den[(i - 1, j - 1)] = q
        elif q < 0:
            key = (i, j, -q)
            power = powers.get(key)
            if power is None:
                diff = polyring._difference(ring, tables.one.vars, i - 1, j - 1)
                power = powers[key] = diff ** -q
            factors.append(power)

    if tables.decorated is None:
        tables.decorated = _facet_decorations(
            ((f, dec) for f in F.facets.values() for dec in f.decorations), N, ring
        )
    at = tables.at
    for f, p in tables.decorated.items():
        key = (f, c[f])
        found = at.get(key)
        if found is None:
            found = at[key] = _at_coloring(p, c[f], N)
        factors.append(found)

    num = functools.reduce(operator.mul, factors) if factors else tables.one
    if sign_exp % 2:
        num = -num
    return RatFun(num, den)


def _colored_values(F: FoamComplex, N: int, ring: CoefRing) -> Iterator[tuple[Coloring, RatFun]]:
    """Each coloring of ``F`` with its :func:`colored_eval` value, in
    :func:`enumerate_colorings` order, all read from one walk."""
    walk = EulerWalk(F)
    for c in enumerate_colorings(F, N):
        yield c, colored_eval(F, c, N, ring, walk)


# ---------------------------------------------------------------------------
# summed evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalResult:
    value: MultiPoly
    foam: FoamComplex
    N: int
    ring: CoefRing

    @property
    def breakdown(self) -> list[tuple[Coloring, RatFun]]:
        """Each coloring of the whole foam with its colored value, in
        :func:`enumerate_colorings` order; computed on every read."""
        return list(_colored_values(self.foam, self.N, self.ring))


def _coloring_key(c: Coloring) -> tuple:
    return tuple(sorted((f, tuple(sorted(s))) for f, s in c.items()))


def _require_pigments(N: int) -> None:
    if N < 1:
        raise InputError(f"N must be >= 1, got {N}")


def _checked_sum(terms: list[RatFun], N: int, ring: CoefRing) -> MultiPoly:
    """Sum colored terms; the sum must be a symmetric polynomial."""
    if terms:
        total = ratfun_sum(terms)
    else:
        total = RatFun(MultiPoly.zero(ring, xvars(N)))
    value = total.as_polynomial()
    if not is_symmetric(value):
        raise NotSymmetric(f"evaluation {value} is not symmetric")
    return value


def _check_degree(
    value: MultiPoly,
    expected_degree: Callable[[], int],
    weights: Sequence[int] | None = None,
) -> None:
    """A nonzero value must be homogeneous of ``expected_degree()``.

    Variable ``k`` has q-degree ``2 * weights[k]``: 2 for each ``X_i`` by
    default, ``2k`` for ``E_k`` (``weights = _e_weights(N)``).
    """
    if not value.is_zero():
        w = weights or (1,) * len(value.vars)
        degrees = {2 * sum(map(operator.mul, w, e)) for e in value.terms}
        d = expected_degree()
        if degrees != {d}:
            raise NotPolynomial(
                f"evaluation has degree {max(degrees)}, expected {d}"
            )


def _e_weights(N: int) -> tuple[int, ...]:
    """The degrees of ``E_1..E_N`` in units of one pigment variable."""
    return tuple(range(1, N + 1))


def evaluate(F: FoamComplex | Movie, N: int, ring: CoefRing = ZZ) -> EvalResult:
    """Sum the colored evaluations of a closed foam, one component at a time.

    A coloring of a disjoint union is one coloring per component, and its
    value is the product of theirs, so the sum over colorings is the
    product of the components' sums.  Each component's sum must be a
    symmetric polynomial (raising ``NotPolynomial`` / ``NotSymmetric``
    otherwise).  For homogeneous decorations and a nonzero value, each
    component's sum and the product must have the degree :func:`degree`
    gives them.
    """
    _require_pigments(N)
    if isinstance(F, Movie):
        F = compile_movie(F)
    if not F.closed:
        raise InputError("only closed foams are evaluated")
    sums = []
    for P in _components(F):
        terms = [value for _, value in _colored_values(P, N, ring)]
        sums.append((P, _checked_sum(terms, N, ring)))
    value = MultiPoly.const(ring, xvars(N), 1)
    for _, s in sums:
        value = value * s
    if not value.is_zero():
        for P, s in sums:
            _check_degree(s, lambda: degree(P, N))
        _check_degree(value, lambda: degree(F, N))
    return EvalResult(value, F, N, ring)


def _orbit_order(c: Coloring, facets: Sequence[str], N: int) -> tuple[tuple, list[int]]:
    """The sorted pigment types of a coloring, and its relabelling from the
    representative of its S_N orbit.

    The type of a pigment is the set of facets whose color holds it, as
    positions in ``facets``.  Relabelling pigments permutes the types, so
    the sorted types name the orbit; its representative is the coloring
    whose types are sorted, and ``perm[p]`` is the pigment of ``c`` (from 0)
    that the representative's pigment ``p`` becomes, the pigments of one
    type in increasing order.
    """
    types = [tuple(k for k, f in enumerate(facets) if i in c[f]) for i in range(1, N + 1)]
    perm = sorted(range(N), key=types.__getitem__)
    return tuple(types[i] for i in perm), perm


class _ShapeTable:
    """Checked values of one undecorated closed foam under dot-shape maps.

    The foam is colored once, and its colorings are grouped into S_N orbits
    by :func:`_orbit_order`.  The pigments of one type in the orbit's
    representative form a run, a block, and the orbit is ``S_N / W_P`` for
    the Young subgroup ``W_P`` of the blocks.  Every coloring's colored
    value must be the representative's value relabelled to it, numerator
    and denominator exactly, sign included (Robert--Wagner,
    arXiv:1702.04140); otherwise the table raises :class:`NotEquivariant`.

    An orbit of more than one coloring whose representative has exponent 0
    on the pairs inside a block and at most 1 across blocks is a
    pushforward.  There the representative's value is ``g / Delta_P`` with
    ``g`` its numerator times ``(Xi - Xj)`` for each cross-block pair
    missing from its denominator; ``g`` must be ``W_P``-invariant, or the
    table raises :class:`NotEquivariant`.  A map's value over the orbit is
    then read straight into Schur coefficients by
    :func:`polyring._schur_coefficients` of ``g`` times the map's
    decorations at the representative, and written in ``e_1..e_N`` by
    ``basis``.  The other orbits, those with a squared pair and one-coloring
    orbits, are summed as one rational sum: their colorings are grouped by
    denominator, each class is lifted once to the classes' least common
    denominator by :func:`polyring._lifts`, and the sum is divided once by
    it.  Each (facet, dot shape) a map uses is specialized, the first time
    it is used, at the colorings a value reads.

    Each value gets the checks of :func:`evaluate`, in order: the lifted sum
    must be a polynomial and symmetric, which writing it in ``e_1..e_N`` by
    ``basis`` decides, and the value homogeneous of degree ``degree(F) + 2 *
    dots`` when nonzero, where ``dots`` is the sum of the map's exponents.
    A pushforward is a sum of Schur polynomials, so a polynomial and
    symmetric by construction.  The value in ``e_1..e_N`` is kept for the
    life of the table.
    """

    def __init__(self, F: FoamComplex, N: int, ring: CoefRing, basis: ElementaryBasis):
        if not F.closed:
            raise InputError("only closed foams are evaluated")
        self.N, self.ring, self.basis = N, ring, basis
        vs = xvars(N)
        self.colorings: list[Coloring] = []
        facets = sorted(F.facets)
        orbits: dict[tuple, list[tuple[int, list[int], RatFun]]] = {}
        for k, (c, value) in enumerate(_colored_values(F, N, ring)):
            self.colorings.append(c)
            key, perm = _orbit_order(c, facets, N)
            orbits.setdefault(key, []).append((k, perm, value))
        # coloring indices per orbit, the representative first
        self.orbits: list[list[int]] = []
        # (representative index, W_P-invariant numerator g, blocks) per orbit
        self.pushforwards: list[tuple[int, MultiPoly, tuple[int, ...]]] = []
        lifted: dict[tuple, list[tuple[int, MultiPoly]]] = {}
        identity = list(range(N))
        for key, members in orbits.items():
            k0, _, rep = next(m for m in members if m[1] == identity)
            for k, perm, r in members:
                want = rep.relabel(perm)
                if want.den != r.den or want.num != r.num:
                    raise NotEquivariant(
                        f"coloring {self.colorings[k]}: value {r} is not its orbit"
                        f" representative's value {rep} relabelled"
                    )
            self.orbits.append([k0] + [k for k, _, _ in members if k != k0])
            blocks = tuple(len(list(run)) for _, run in itertools.groupby(key))
            block_of = [b for b, size in enumerate(blocks) for _ in range(size)]
            if len(members) > 1 and all(
                m == 1 and block_of[i] != block_of[j] for (i, j), m in rep.den.items()
            ):
                g = rep.num
                for i, j in itertools.combinations(range(N), 2):
                    if block_of[i] != block_of[j] and (i, j) not in rep.den:
                        g = g * polyring._difference(ring, vs, i, j)
                if not is_symmetric(g, blocks):
                    raise NotEquivariant(
                        f"representative {self.colorings[k0]}: value {rep} is not"
                        f" invariant under its stabilizer"
                    )
                self.pushforwards.append((k0, g, blocks))
            else:
                for k, _, r in members:
                    lifted.setdefault(tuple(sorted(r.den.items())), []).append((k, r.num))
        self.lcd, lifts = _lifts(list(lifted), ring, vs)
        # (lift, [(coloring index, numerator), ...]) per denominator class
        self.classes = list(zip(lifts, lifted.values()))
        # the colorings whose decorations the values read
        self.points = sorted(
            {k for k, _, _ in self.pushforwards}
            | {k for _, members in self.classes for k, _ in members}
        )
        self.bare_degree = degree(F, N)
        self.specialized: dict[tuple[str, DotShape], dict[int, MultiPoly]] = {}
        self.values: dict[DecMap, MultiPoly] = {}

    def _specialized(self, f: str, shape: DotShape) -> dict[int, MultiPoly]:
        """The decoration of ``shape`` on facet ``f`` at each of the points."""
        key = (f, shape)
        if key not in self.specialized:
            p = _orbit_poly(self.ring, shape)
            at: dict[frozenset[int], MultiPoly] = {}
            for k in self.points:
                color = self.colorings[k][f]
                if color not in at:
                    at[color] = _at_coloring(p, color, self.N)
            self.specialized[key] = {k: at[self.colorings[k][f]] for k in self.points}
        return self.specialized[key]

    def value(self, decmap: DecMap) -> MultiPoly:
        """The checked value of ``decmap``, in ``e_1..e_N``."""
        if decmap not in self.values:
            N, ring = self.N, self.ring
            specs = [self._specialized(f, shape) for f, shape in decmap]
            total: dict[tuple[int, ...], Scalar] = {}
            for lift, members in self.classes:
                acc: dict[tuple[int, ...], Scalar] = {}
                for k, num in members:
                    for spec in specs:
                        num = num * spec[k]
                    for e, c in num.terms.items():
                        acc[e] = acc.get(e, 0) + c
                part = MultiPoly._from_raw(ring, lift.vars, acc)
                if not part.is_zero():
                    for e, c in (lift * part).terms.items():
                        total[e] = total.get(e, 0) + c
            schur: dict[tuple[int, ...], Scalar] = {}
            for k, g, blocks in self.pushforwards:
                for spec in specs:
                    g = g * spec[k]
                for lam, c in polyring._schur_coefficients(g, blocks).items():
                    schur[lam] = schur.get(lam, 0) + c
            value_e = self.basis.from_schur(ring, schur)
            if total:
                summed = RatFun(MultiPoly._from_raw(ring, xvars(N), total), self.lcd)
                value = summed.as_polynomial()
                try:
                    value_e = value_e + self.basis.to_e(value)
                except NotInSymmetricSubring:
                    raise NotSymmetric(f"evaluation {value} is not symmetric") from None
            _check_degree(
                value_e,
                lambda: self.bare_degree + 2 * _dots(s for _, s in decmap),
                _e_weights(N),
            )
            self.values[decmap] = value_e
        return self.values[decmap]

    def combine(self, terms: Iterable[tuple[Scalar, DecMap]]) -> MultiPoly:
        """``sum c * value(decmap)`` over ``(c, decmap)`` terms, in ``e_1..e_N``."""
        total: dict[tuple[int, ...], Scalar] = {}
        for c, decmap in terms:
            for e, v in self.value(decmap).terms.items():
                total[e] = total.get(e, 0) + v * c
        return MultiPoly._from_raw(self.ring, self.basis.e_names, total)


# A dot term of :func:`evaluate_family`: a coefficient and dot shapes, each
# placed on the facet of ``edge`` in slice ``t`` of the undecorated movie.
DotTerm = tuple[Scalar, tuple[tuple[int, str, DotShape], ...]]
_PLAIN: tuple[DotTerm, ...] = ((1, ()),)


def evaluate_family(
    foams: Sequence[Movie | tuple[Movie, Sequence[DotTerm]]],
    N: int,
    ring: CoefRing = ZZ,
) -> list[MultiPoly]:
    """The values of closed foams, each shape map summed once per undecorated foam.

    A foam is a closed movie, or a pair ``(movie, terms)`` whose value is
    ``sum c * value(movie with the term's extra dot shapes)`` over the dot
    terms ``(c, ((t, edge, shape), ...))``; a bare movie is the single term
    ``(1, ())``.  Each movie is split into its undecorated movie and its
    decorations, and equal undecorated movies become one object
    (:func:`~foamlab.foamcore._split_movies`), which :func:`_family_values`
    compiles and colors once (a :class:`_ShapeTable`).  A term's decorations
    are split into dot-shape maps, and its value is their combination, so a
    map shared by many terms is summed over the colorings once.

    Each map's value has the checks of :func:`evaluate`; a nonzero term
    value must also be homogeneous of the degree of its decorated foam,
    which raises :class:`NonHomogeneous` for a non-homogeneous decoration.
    Each value equals the :func:`evaluate` value of its foam (summed over
    its terms).
    """
    basis = ElementaryBasis(xvars(N))
    pairs = [foam if isinstance(foam, tuple) else (foam, _PLAIN) for foam in foams]
    split = _split_movies(mov for mov, _ in pairs)
    values = _family_values(
        [(bare, decorations, terms) for (bare, decorations), (_, terms) in zip(split, pairs)],
        N, ring, basis,
    )
    return [basis.from_e(v) for v in values]


def _family_values(
    foams: Sequence[tuple[Movie, Decorations, Sequence[DotTerm]]],
    N: int,
    ring: CoefRing,
    basis: ElementaryBasis,
) -> list[MultiPoly]:
    """The values of split foams ``(undecorated movie, decorations, terms)``,
    in ``e_1..e_N`` of ``basis``.

    The value of a foam is that of :func:`evaluate_family` for the movie
    carrying ``decorations``, placed as :func:`_strip_decorations` returns
    them.  Foams are grouped by undecorated movie object, each compiled and
    colored once, and within it by decorations object, each multiplied per
    facet once (:func:`_facet_decorations`); ``foams`` holds every object
    for the call, so no id is reused.  Shape values and their combinations
    stay in ``e_1..e_N``; the degree of a term is read with ``E_k`` of
    q-degree ``2k``.
    """
    _require_pigments(N)
    # the foams of each undecorated movie, grouped by decorations
    groups: dict[int, tuple[Movie, dict[int, tuple[Decorations, list]]]] = {}
    for k, (bare, decorations, terms) in enumerate(foams):
        by_decs = groups.setdefault(id(bare), (bare, {}))[1]
        by_decs.setdefault(id(decorations), (decorations, []))[1].append((k, terms))
    weights = _e_weights(N)
    orbit_polys: dict[DotShape, MultiPoly] = {}
    values: list[MultiPoly] = [None] * len(foams)  # type: ignore[list-item]
    for bare, by_decs in groups.values():
        F = compile_movie(bare)
        table = _ShapeTable(F, N, ring, basis)
        thickness = {f: facet.thickness for f, facet in F.facets.items()}
        for decorations, members in by_decs.values():
            decs = _facet_decorations(_placed_on(F, decorations), N, ring)
            for k, terms in members:
                total: dict[tuple[int, ...], Scalar] = {}
                for coef, placed in terms:
                    term_decs = dict(decs)
                    for t, edge, shape in placed:
                        f = F.edge_facets[t][edge]
                        if shape not in orbit_polys:
                            orbit_polys[shape] = _orbit_poly(ring, shape)
                        p = orbit_polys[shape]
                        term_decs[f] = term_decs[f] * p if f in term_decs else p
                    value = table.combine(_dot_shapes(1, term_decs, thickness, ring))
                    _check_degree(value, lambda: (
                        table.bare_degree
                        + sum(_decoration_degree(d) for _, _, d in decorations)
                        + 2 * _dots(s for _, _, s in placed)
                    ), weights)
                    for e, c in value.terms.items():
                        total[e] = total.get(e, 0) + c * coef
                values[k] = MultiPoly._from_raw(ring, basis.e_names, total)
    return values


# ---------------------------------------------------------------------------
# degree
# ---------------------------------------------------------------------------


def _binding_term(b: Binding, F: FoamComplex, N: int) -> int:
    a, bb = b.thin_thicknesses(F.facets)
    return a * bb + (a + bb) * (N - a - bb)


def degree(F: FoamComplex | Movie, N: int) -> int:
    """The intrinsic degree of a compiled foam for N pigments."""
    _require_pigments(N)
    if isinstance(F, Movie):
        F = compile_movie(F)
    total = 0
    for f in F.facets.values():
        dec_deg = sum(_decoration_degree(dec) for dec in f.decorations)
        ell = f.thickness
        total += dec_deg - ell * (N - ell) * f.chi
    for b in F.bindings.values():
        if not b.is_circle and not b.boundary:
            # each interval seam arc between two singular points
            total += _binding_term(b, F, N)
    for v in F.vertices.values():
        a, bb, cc = v.thin_thicknesses
        total -= (
            a * bb + bb * cc + a * cc + (a + bb + cc) * (N - a - bb - cc)
        )
    return total


_MOVE_LOCAL_DEGREE = {
    "cup": lambda a, N: -a * (N - a),
    "cap": lambda a, N: -a * (N - a),
    "saddle": lambda a, N: a * (N - a),
    "zip": lambda a, b, N: a * b,
    "unzip": lambda a, b, N: a * b,
    "digon_cup": lambda a, b, N: -a * b,
    "digon_cap": lambda a, b, N: -a * b,
}


def degree_incremental(mov: Movie, N: int) -> int:
    """Degree as the sum of the local degrees of the basic moves, each read
    from the thicknesses its compiled trace records, and of the decorations."""
    traces = compile_movie(mov).traces
    total = sum(_decoration_degree(mv.poly) for mv in mov.moves if isinstance(mv, Decorate))
    for tr in traces:
        if tr.kind in _MOVE_LOCAL_DEGREE:
            total += _MOVE_LOCAL_DEGREE[tr.kind](*tr.thickness, N)
    return total


# ---------------------------------------------------------------------------
# generalized decoration (bubble) calculus
# ---------------------------------------------------------------------------


def trivial_degree_check(F: FoamComplex, N: int) -> bool:
    """For undecorated foams the degree equals −Σ χ(bichrome) per coloring,
    the sum read from one walk of each coloring."""
    d = degree(F, N)
    walk = EulerWalk(F)
    for c in enumerate_colorings(F, N):
        _, pairs = walk.read(walk.types(c, N))
        if d != -sum(chi_ij for _, _, chi_ij, _ in pairs):
            return False
    return True


@dataclass
class CheckReport:
    ok: bool
    witness: Coloring | None = None
    detail: str = ""


def _find_edge_slice(webs: Sequence[Web], edge: str) -> tuple[int, int]:
    """First index of the slices ``webs`` at which the edge exists, and its
    thickness."""
    for idx, w in enumerate(webs):
        if edge in w.edges:
            return idx, w.edges[edge].thickness
    raise InputError(f"edge {edge} never appears in the movie")


def with_bubble(mov: Movie, edge: str, R: SymPoly, N: int, side: str = "good") -> Movie:
    """Glue a decorated thickness-N bubble onto the facet carrying ``edge``.

    The bubble is realized as five inserted moves: a membrane circle is
    born, zipped with the facet edge (the facet edge sits in the first zip
    slot for ``side="good"`` and in the second for ``side="other"``), the
    membrane arc is decorated by R, the thick edge is unzipped and the
    re-closed membrane circle dies.  The facet edge id is reused by the
    unzip so the remainder of the movie applies unchanged.
    """
    return _with_bubble(mov, mov.slices(), edge, R, N, side)


def _with_bubble(
    mov: Movie, webs: Sequence[Web], edge: str, R: SymPoly, N: int, side: str
) -> Movie:
    """:func:`with_bubble` on a movie whose slices are ``webs``."""
    idx, a = _find_edge_slice(webs, edge)
    m = N - a
    if m < 0:
        raise InputError(f"facet thickness {a} exceeds N={N}")
    if len(R.blocks) != 1 or R.blocks[0] != m:
        raise InputError(f"bubble decoration must be symmetric in {m} variables")
    if m == 0:
        # empty complement: the bubble degenerates to nothing; identity gluing
        return mov
    used = {x for w in webs for x in (*w.edges, *w.vertices)}
    fresh = (x for x in (f"bub{k}" for k in itertools.count(1)) if x not in used)
    d, mvv, svv, thick, arc, e1 = itertools.islice(fresh, 6)
    e2 = e1 if webs[idx].edges[edge].is_circle else next(fresh)
    if side == "good":
        zip_mv = Zip(edge, d, mvv, svv, thick, e1, e2, arc, arc)
        unzip = Unzip(thick, edge, d)
    else:
        zip_mv = Zip(d, edge, mvv, svv, thick, arc, arc, e1, e2)
        unzip = Unzip(thick, d, edge)
    inserted = (Cup(m, d), zip_mv, Decorate(arc, R), unzip, Cap(d))
    return Movie(mov.input_web, mov.moves[:idx] + inserted + mov.moves[idx:])


def bubble_check(
    base: Movie,
    facet_edge: str,
    R: SymPoly,
    N: int,
    ring: CoefRing = ZZ,
) -> CheckReport:
    """Validate the decorated-bubble reduction per coloring, on both sides.

    Gluing a thickness-N bubble with membrane decoration R onto a facet of
    thickness a multiplies each colored evaluation by R evaluated on the
    complementary pigments, up to the closed-form sign
    ``(−1)^{(N−a)(N−a+1)/2}`` — with an extra ``(−1)^{a(N−a)}`` when the
    bubble is glued from the other side.
    """
    webs = base.slices()
    idx, a = _find_edge_slice(webs, facet_edge)
    m = N - a
    Fb = compile_movie(base)
    base_vals = {_coloring_key(c): value for c, value in _colored_values(Fb, N, ring)}
    sign_main = (-1) ** ((m * (m + 1)) // 2)
    for side, sign in (("good", sign_main), ("other", sign_main * (-1) ** (a * m))):
        blown = _with_bubble(base, webs, facet_edge, R, N, side)
        if m == 0:
            continue  # degenerate: nothing to compare beyond identity
        Fg = compile_movie(blown)
        blown_walk = EulerWalk(Fg)
        # base slice t is blown slice t up to the bubble and t + 5 after it
        fmap = {
            Fg.edge_facets[t if t <= idx else t + 5][e]: f
            for t, facet_of in enumerate(Fb.edge_facets)
            for e, f in facet_of.items()
        }
        membrane = Fg.edge_facets[idx + 1][blown.moves[idx].out_edge]
        r_dec = _canonical_decoration(R, m, N, ring)
        seen = 0
        for c in enumerate_colorings(Fg, N):
            restricted = {fmap[f]: col for f, col in c.items() if f in fmap}
            key = _coloring_key(restricted)
            if key not in base_vals:
                return CheckReport(False, c, "no matching base coloring")
            base_val = base_vals[key]
            r_val = _at_coloring(r_dec, c[membrane], N)
            lhs = colored_eval(Fg, c, N, ring, blown_walk) * sign
            rhs = base_val * r_val
            if lhs != rhs:
                return CheckReport(
                    False, c, f"side={side}: {lhs} != ({r_val})*({base_val})"
                )
            seen += 1
        if seen != len(base_vals):
            return CheckReport(False, None, "coloring counts differ")
    return CheckReport(True)


# ---------------------------------------------------------------------------
# dot migration
# ---------------------------------------------------------------------------


def split_decoration(
    R: SymPoly, a: int, b: int, ring: CoefRing = ZZ
) -> list[tuple[SymPoly, SymPoly]]:
    """Write a symmetric polynomial in a+b variables as Σ_j P_j(x)·Q_j(y).

    ``R`` is split into monomial orbits of the two blocks by
    :func:`_orbit_decompose`.  There is one piece per orbit of the first a
    variables, in the order the orbits are first reached among ``R``'s
    terms: ``P`` is that orbit's monomial symmetric polynomial and ``Q``
    the sum of the second-block orbits it meets, each with its
    coefficient, both built by :func:`_orbit_poly`.  ``P`` is on
    ``x_1..x_a`` and ``Q`` on ``x_1..x_b``; substituting ``x_{a+1}..x_{a+b}``
    for Q's variables and summing products recovers R.  A zero R has no
    pieces.
    """
    if len(R.blocks) != 1 or R.blocks[0] != a + b:
        raise InputError(f"decoration must be symmetric in {a + b} variables")
    poly = R.poly
    if poly.ring != ring:
        poly = poly.map_coefficients(ring, ring.normalize)
    right: dict[tuple[int, ...], MultiPoly] = {}
    for (lam, mu), coef in _orbit_decompose(poly, a).items():
        q = _orbit_poly(ring, (mu, ())) * coef
        right[lam] = right[lam] + q if lam in right else q
    return [
        (SymPoly(_orbit_poly(ring, (lam, ())), (a,)), SymPoly(q, (b,)))
        for lam, q in right.items()
    ]


def dot_migration_check(
    a: int, b: int, R: SymPoly, N: int, ring: CoefRing = ZZ
) -> CheckReport:
    """Check decoration migration through a digon seam, per coloring.

    Compares the theta-like closed foam with R on its thick facet against
    the sum of the same foam with the split pieces of R on the two thin
    facets, coloring by coloring.
    """
    from .foamcore import MovieBuilder

    def build(thick_dec: SymPoly | None, thin_decs=None):
        bld = MovieBuilder()
        t = bld.cup(a + b)
        if thick_dec is not None:
            bld.decorate(t, thick_dec)
        dc = bld.digon_cup(t, a, b)
        if thin_decs is not None:
            pa, pb = thin_decs
            bld.decorate(dc.edge_a, pa)
            bld.decorate(dc.edge_b, pb)
        out = bld.digon_cap(dc.edge_a, dc.edge_b)
        bld.cap(out.out_edge)
        return bld.movie()

    Fl = compile_movie(build(R))
    pieces = split_decoration(R, a, b, ring)
    rhs_movies = [compile_movie(build(None, (pa, pb))) for pa, pb in pieces]
    rhs_walks = [(Fr, EulerWalk(Fr)) for Fr in rhs_movies]
    for c, lhs in _colored_values(Fl, N, ring):
        rhs = None
        for Fr, walk in rhs_walks:
            term = colored_eval(Fr, c, N, ring, walk)
            rhs = term if rhs is None else rhs + term
        if not pieces:
            continue
        if lhs != rhs:
            return CheckReport(False, c, f"{lhs} != {rhs}")
    return CheckReport(True)

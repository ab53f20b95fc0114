"""Independent references for the test suite.

The brute-force oracle for closed-foam values is a from-scratch
transcription of the colored evaluation formula for the simplest hand-built
complexes (a 1-sphere with dots), using its own dense polynomial arithmetic
over ``fractions.Fraction``.  It shares no code with the package and exists
so that worked values in the test suite are pinned by two fully independent
computations.

The per-term polynomial kernel keeps ``MultiPoly``'s earlier arithmetic,
which reduced every partial sum through ``ring.add``/``ring.mul``/
``ring.divide``; the package accumulates raw sums and normalizes once, and
the tests require identical terms.

The reference operator applicator at the end works through polynomials:
it expands every dot shape to a ``MultiPoly``, differentiates it with
``witt_act``, multiplies the move images' power sums in, and decomposes the
results back into dot shapes.  The package applies the same operators with
closed rules on the shapes; the tests require identical terms.  Its move
images come from separate Witt and sl2 tables, one branch per move kind,
where the package uses one move rule with per-operator weights.

The reference move images expand the move rule once per basic move and
merge the summands by dot list; the package sums the weights of all moves
on the same two blocks and expands each block pair once.

The unfactored closed-foam value sums the colored evaluations of every
coloring of the whole complex in one rational sum; the package sums each
connected component's colorings and multiplies the component values.

The reference Pieri step adds and takes every ``r``-subset of positions
and sorts; the package adds the vertical strips on each partition run by
run of equal parts, each once with the number of subsets that give it.

The reference distinct permutations recurse on each distinct first value;
the package steps from one permutation to the previous one in place.

The reference fraction-free solve forms the full Bareiss update at every
entry; the package skips the updates that are the identity or zero.

The reference induced-operator matrix solves the pairing system with the
package's solver on entries in the pigment alphabet ``X1..XN`` and runs
the kernel certificate there, differentiating coefficients with
``witt_act``; the package solves over the elementary symmetric
polynomials and converts only the solution back.  The reference operator
algebra composes and raises those matrices in ``X1..XN`` (``mat_mul`` plus
``witt_act`` on every entry); the package composes the solved matrices in
``e_1..e_N`` by the chain rule and converts only the result.

The dense quantum binomial multiplies and divides Gaussian-binomial factors
``(1 - t^(m-k+1)) / (1 - t^k)`` as dense coefficient lists in ``t = q^2``
and recenters; the package builds the balanced q-Pascal triangle on its
Laurent helpers.

The reference specialization evaluates a Gram entry exactly at a point
and reduces the value mod p; the package reduces each coefficient and each
power as it reads them.  The reference rank specializes the Gram entries
expanded in ``X1..XN`` at a random point of the pigment alphabet; the
package specializes the stored entries in ``e_1..e_N`` at a random point
of ``E1..EN``.

The reference shape value sums one dot-shape map over the colorings of an
undecorated closed foam part by part: each coloring's value times the
map's decorations at that coloring, one ``ratfun_sum`` of all the parts,
and the checks of ``evaluate``.  The package's shape table sums most S_N
orbits of colorings at one representative straight into Schur
coefficients, lifts the rest to their common denominator, and writes each
checked value in ``e_1..e_N``.

The reference orbit sum ``d_w g`` applies divided differences ``d_i`` along
a reduced word of ``w = w_0 w_{0,P}``, in ``X1..XN``; the reference
conversion into ``e_1..e_N`` is leading-term subtraction on the
coefficients at partitions.  The package reads Schur coefficients by one
sort per term and writes each Schur polynomial in ``e`` by the Pieri rule.

The dotted thin sphere at a point sums its colorings' values at distinct
integer coordinates in ``Fraction`` arithmetic, with nothing expanded.

The per-pair Euler scans rescan every facet, binding and singular vertex
of the complex for one pigment or one pigment pair, and the reference
colored value calls them once per pigment and once per pair, and
canonicalizes every decoration again at every coloring; the package reads
every pigment and pair of one coloring from one ``EulerWalk`` of the foam,
and canonicalizes each facet's decorations once per walk.  The reference
colex subsets build and sort the full list of ``k``-subsets; the package
steps through them one bitmask at a time.  The reference coloring
enumerator tries every ``k``-subset of ``1..N`` at every facet; the
package tries only the subsets that the facet's colored binding partners
leave open.

The reference incremental degree walks the movie's slices and reads the
thicknesses each basic move acts on from the slice before it; the package
reads them from the move traces of the compiled foam.  The reference
association and coassociation rewire two merge and two split vertices by
two patterns of their own; the package has one association rule, and
coassociates by turning every arrow of the web round, associating the two
merge vertices that result, and turning the arrows back.

The reference move application, mirror and movie compiler write every
basic move's rule in full, once in each of the three: each reads its own
unzip and digon-cap pattern, cuts and rejoins edges in its own code, the
compiler lists each move's consumed edges in a pass of its own and
compiles coassociation by a split-vertex copy of the association branch.
The package reads each pattern with one function, cuts and rejoins with
one helper each, records what a move consumes as the move takes it, and
compiles coassociation as association on the reversed slices.

The reference exponent rewrites scatter each exponent with a loop of their
own and renormalize every coefficient: ``extend``, ``permute_vars``, the
numerator of ``RatFun.relabel``, and the facet polynomial at a coloring by
a rename followed by an extension.  The reference ``L_n`` subtracts
``z_i^{n+1}`` times the partial derivative in ``z_i`` for each variable, and
the reference ``L_n`` on a colored ratio adds ``n + 1`` one-term
polynomials per denominator pair.  The package moves variables by one
gather per term that keeps the canonical coefficients, reads each term
once for ``L_n``, and builds the ratio's correction as one dict.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import combinations, product
from typing import Callable, Iterable

from foamlab import actions, statespace
from foamlab.actions import ActionParams, LocalImage, _Skeleton, half_scalar
from foamlab.foamcore import (
    Assoc,
    Binding,
    Cap,
    Coassoc,
    Coloring,
    Cup,
    Decorate,
    DigonCap,
    DigonCup,
    Edge,
    Facet,
    FoamComplex,
    Isotopy,
    Movie,
    MoveTrace,
    Saddle,
    SingularVertex,
    Unzip,
    Vertex,
    Web,
    Zip,
    _BindingRec,
    _get_edge,
    _get_vertex,
    _UF,
    enumerate_colorings,
)
from foamlab.foameval import (
    DecMap,
    _at_coloring,
    _canonical_decoration,
    _check_degree,
    _checked_sum,
    _decoration_degree,
    _dots,
    _orbit_poly,
    colored_eval,
    degree,
)
from foamlab.errors import (
    DivisionNotExact,
    InputError,
    NonSphericalWithNu3,
    NotInSymmetricSubring,
    NotWellDefined,
    OddEuler,
    PatternMismatch,
    SeamSignInconsistent,
    WrongRing,
)
from foamlab.polyring import (
    ZZ,
    CoefRing,
    ElementaryBasis,
    MultiPoly,
    RatFun,
    Scalar,
    facet_vars,
    is_symmetric,
    power_sum,
    _laurent_clean,
    _canonical,
    ratfun_sum,
    witt_act,
    xvars,
)

Poly = dict[tuple[int, ...], Fraction]  # exponent vector over X1..XN -> coeff


def _clean(p: Poly) -> Poly:
    return {e: c for e, c in p.items() if c != 0}


def p_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return _clean(out)


def p_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return _clean(out)


def p_scale(a: Poly, c) -> Poly:
    return _clean({e: v * Fraction(c) for e, v in a.items()})


def x_power(N: int, i: int, k: int) -> Poly:
    """The monomial X_i**k in N variables (i is 1-based)."""
    e = [0] * N
    e[i - 1] = k
    return {tuple(e): Fraction(1)}


def p_div_exact(a: Poly, b: Poly) -> Poly:
    """Exact division by repeated leading-term elimination."""
    if not a:
        return {}
    rem = dict(a)
    quo: Poly = {}
    bl = max(b)  # plain lexicographic leading term is enough here
    while rem:
        al = max(rem)
        e = tuple(x - y for x, y in zip(al, bl))
        if any(x < 0 for x in e):
            raise ArithmeticError("division not exact")
        c = rem[al] / b[bl]
        quo[e] = quo.get(e, Fraction(0)) + c
        rem = p_add(rem, p_mul({e: -c}, b))
    return _clean(quo)


def sphere_value(k: int, N: int) -> Poly:
    """Value of a thin 1-sphere carrying ``k`` dots, with ``N`` pigments.

    The sphere has one facet of thickness one and no seams.  A coloring
    picks the facet pigment i; the sign exponent is i times half the Euler
    characteristic of the pigment-i surface (the full sphere), and each
    other pigment j contributes a factor (X_i - X_j) downstairs with
    exponent half the Euler characteristic of the bichrome sphere.
    """
    # Sum the colorings over the common denominator prod_{a<b}(X_a - X_b):
    # the coloring-i denominator is the product of the ordered difference
    # factors involving pigment i, so the common denominator divided by it
    # is the product of the factors avoiding pigment i.
    def diff(a: int, b: int) -> Poly:
        return p_add(x_power(N, a, 1), p_scale(x_power(N, b, 1), -1))

    common: Poly = {(0,) * N: Fraction(1)}
    for a in range(1, N + 1):
        for b in range(a + 1, N + 1):
            common = p_mul(common, diff(a, b))
    numerator: Poly = {}
    for i in range(1, N + 1):
        sign = (-1) ** i  # i * chi(sphere) / 2 == i
        cofactor: Poly = {(0,) * N: Fraction(1)}
        for a in range(1, N + 1):
            for b in range(a + 1, N + 1):
                if a != i and b != i:
                    cofactor = p_mul(cofactor, diff(a, b))
        # the bichrome factors (X_a - X_b) are taken with a < b; converting
        # them to the coloring-centered product cancels the reordering sign
        term = p_scale(p_mul(x_power(N, i, k), cofactor), sign)
        numerator = p_add(numerator, term)
    return p_div_exact(numerator, common)


def sphere_value_at(k: int, point: list[int]) -> Fraction:
    """:func:`sphere_value` at a point of distinct coordinates, one term per
    coloring: ``(-1)^i X_i^k`` times the difference factors avoiding pigment
    ``i``, over all of them."""
    N = len(point)

    def product(skip: int) -> Fraction:
        out = Fraction(1)
        for a in range(N):
            for b in range(a + 1, N):
                if skip not in (a, b):
                    out *= point[a] - point[b]
        return out

    total = sum((-1) ** (i + 1) * Fraction(point[i]) ** k * product(i) for i in range(N))
    return total / product(-1)


def sphere_gram(N: int, dots: list[int]) -> list[list[Poly]]:
    """Pairing matrix of dotted thin cups: entry (i, j) is a dotted sphere."""
    return [[sphere_value(a + b, N) for b in dots] for a in dots]


def elementary_poly(N: int, k: int) -> Poly:
    """Elementary symmetric polynomial of degree k in X1..XN."""
    out: Poly = {}
    for picks in product(*[range(2)] * N):
        if sum(picks) == k:
            out[tuple(picks)] = Fraction(1)
    return out


# ---------------------------------------------------------------------------
# Per-term polynomial kernel
# ---------------------------------------------------------------------------


def term_add(a: MultiPoly, b: MultiPoly) -> dict:
    """The terms of ``a + b``, every partial sum reduced by ``ring.add``."""
    ring, out = a.ring, dict(a.terms)
    for e, c in b.terms.items():
        s = ring.add(out.get(e, 0), c)
        if s == 0:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def term_sub(a: MultiPoly, b: MultiPoly) -> dict:
    """The terms of ``a - b``, every partial difference reduced by ``ring.add``."""
    ring, out = a.ring, dict(a.terms)
    for e, c in b.terms.items():
        s = ring.add(out.get(e, 0), ring.neg(c))
        if s == 0:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def term_mul(a: MultiPoly, b: MultiPoly) -> dict:
    """The terms of ``a * b``, one ``ring.add(…, ring.mul(…))`` per pair."""
    ring, out = a.ring, {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = ring.add(out.get(e, 0), ring.mul(c1, c2))
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def term_exact_div(a: MultiPoly, b: MultiPoly) -> dict:
    """The terms of ``a / b`` by leading-term elimination, one
    ``ring.divide`` per quotient term and four ring calls per update.
    """
    ring = a.ring
    lead = max(b.terms, key=lambda e: (sum(e), e))
    rem = dict(a.terms)
    heap = [((-sum(e), tuple(-k for k in e)), e) for e in rem]
    heapq.heapify(heap)
    quo = {}
    while heap:
        e = heapq.heappop(heap)[1]
        c = rem.get(e)
        if c is None:
            continue
        qe = tuple(x - y for x, y in zip(e, lead))
        if any(x < 0 for x in qe):
            raise DivisionNotExact("leading monomial not divisible")
        qc = ring.divide(c, b.terms[lead])
        quo[qe] = qc
        for de, dc in b.terms.items():
            te = tuple(x + y for x, y in zip(qe, de))
            old = rem.get(te)
            if old is None:
                heapq.heappush(heap, ((-sum(te), tuple(-k for k in te)), te))
                old = 0
            s = ring.add(old, ring.neg(ring.mul(qc, dc)))
            if s == 0:
                rem.pop(te, None)
            else:
                rem[te] = s
    return quo


def pieri_reference(f: dict, r: int, N: int) -> dict:
    """``f * e_r`` on coefficients at partitions of length ``N``: every
    ``r``-subset of positions is added to every partition of ``f`` and
    taken from every target, and the differences are sorted."""
    subsets = list(combinations(range(N), r))
    targets = set()
    for mu in f:
        for S in subsets:
            nu = list(mu)
            for i in S:
                nu[i] += 1
            if all(x >= y for x, y in zip(nu, nu[1:])):
                targets.add(tuple(nu))
    out = {}
    for nu in targets:
        total = 0
        for S in subsets:
            if all(nu[i] for i in S):
                a = list(nu)
                for i in S:
                    a[i] -= 1
                total += f.get(tuple(sorted(a, reverse=True)), 0)
        if total:
            out[nu] = total
    return out


# ---------------------------------------------------------------------------
# Orbit sums and the elementary basis
# ---------------------------------------------------------------------------


def divided_difference_reference(
    terms: dict[tuple[int, ...], Scalar], i: int, ring: CoefRing
) -> dict[tuple[int, ...], Scalar]:
    """The terms of ``d_i f = (f - s_i f) / (x_i - x_{i+1})``, where ``s_i``
    swaps ``x_i`` and ``x_{i+1}``.

    Term by term, with ``x = x_i``, ``y = x_{i+1}`` and ``a > b``,
    ``(x^a y^b - x^b y^a) / (x - y)`` is ``(xy)^b`` times the ``a - b``
    monomials of degree ``a - b - 1`` in ``x, y``; swapping ``a`` and ``b``
    negates it.
    """
    out: dict[tuple[int, ...], Scalar] = {}
    for e, c in terms.items():
        a, b = e[i], e[i + 1]
        if a == b:
            continue
        if a < b:
            a, b, c = b, a, -c
        head, tail = e[:i], e[i + 2:]
        for t in range(a - b):
            ne = head + (b + t, a - 1 - t) + tail
            out[ne] = out.get(ne, 0) + c
    return _canonical(ring, out)


def pushforward_reference(g: MultiPoly, blocks) -> MultiPoly:
    """``sum over sigma in S_N / W_P of sigma(g / Delta_P)`` as ``d_w g`` in
    ``X1..XN``, ``w = w_0 w_{0,P}``, for ``g`` invariant under ``W_P``.

    The word of ``w`` is read from the right: while ``w`` has a descent at
    ``i`` (``w(i) > w(i+1)``), ``d_w = d_{w s_i} d_i``, so ``d_i`` acts
    first and ``w`` becomes ``w s_i``.
    """
    n = sum(blocks)
    w: list[int] = []
    for size in blocks:
        w += range(n - len(w) - size, n - len(w))
    terms = g.terms
    i = 0
    while i < n - 1:
        if w[i] > w[i + 1]:
            terms = divided_difference_reference(terms, i, g.ring)
            w[i], w[i + 1] = w[i + 1], w[i]
            i = max(i - 1, 0)
        else:
            i += 1
    return MultiPoly(g.ring, g.vars, terms)


def to_e_reference(basis: ElementaryBasis, poly: MultiPoly) -> MultiPoly:
    """``poly`` in the ``e_1..e_N`` of ``basis`` by leading-term subtraction
    under graded lex order, on the coefficients at partitions.

    The leading partition ``lam`` of what is left contributes ``c *
    e^alpha`` with ``alpha_i = lam_i - lam_{i+1}``, whose expansion (the
    package's Pieri expansion of ``e^alpha``) has leading coefficient 1 at
    ``lam``.  Raises :class:`NotInSymmetricSubring` unless ``poly`` is
    symmetric.
    """
    if not is_symmetric(poly):
        raise NotInSymmetricSubring(f"{poly} is not symmetric")
    work = {e: c for e, c in poly.terms.items() if list(e) == sorted(e, reverse=True)}
    norm = poly.ring.normalize
    out: dict[tuple[int, ...], Scalar] = {}
    while work:
        lam = max(work, key=lambda e: (sum(e), e))
        c = work.pop(lam)
        alpha = tuple(a - b for a, b in zip(lam, lam[1:] + (0,)))
        out[alpha] = c
        for mu, k in basis._expansion(alpha).items():
            if mu != lam:
                s = norm(work.get(mu, 0) - c * k)
                if s:
                    work[mu] = s
                else:
                    work.pop(mu, None)
    return MultiPoly(poly.ring, basis.e_names, out)


# ---------------------------------------------------------------------------
# Reference operator applicator
# ---------------------------------------------------------------------------


def leibniz_reference(S, dec_fn, local_fn):
    """Apply an operator to the formal sum ``S`` through polynomials.

    ``dec_fn`` maps a decoration polynomial to its image; ``local_fn`` gives
    each move's image as ``actions`` builds it, (scalar, dots) summands with
    a dot ``(f, k, hat)`` standing for ``p_k`` of a block of facet ``f``.
    """
    skel = S.skeleton
    ring, N = skel.ring, skel.N

    def dot_poly(f: str, k: int, hat: bool) -> MultiPoly:
        a = skel.thickness[f]
        vs = facet_vars(a, N - a)
        return power_sum(ring, vs[a:] if hat else vs[:a], k).extend(vs)

    images = [local_fn(tr) for tr in skel.complex.traces]
    raw = []
    for coef, decs in S.terms:
        dmap = {f: _orbit_poly(ring, shape) for f, shape in decs}
        for f, p in dmap.items():
            dp = dec_fn(p)
            if not dp.is_zero():
                raw.append((coef, {**dmap, f: dp}))
        for image in images:
            for c_loc, dots in image:
                nd = dict(dmap)
                for f, k, hat in dots:
                    q = dot_poly(f, k, hat)
                    nd[f] = nd[f] * q if f in nd else q
                raw.append((ring.mul(coef, c_loc), nd))
    return actions.FoamSum._canonical(skel, raw)


# The move tables below transcribe each operator's basic move images
# separately, one branch per move kind and operator, as reference for the
# package's single move rule with per-operator weights.


def _dotted(
    skel: _Skeleton, coef: Scalar, *spec: tuple[str, int, bool]
) -> tuple[Scalar, list[tuple[str, int, bool]]] | None:
    """One local summand; ``p_0`` is the block size, a dot on an empty block is 0."""
    ring = skel.ring
    sc = ring.normalize(coef)
    dots: list[tuple[str, int, bool]] = []
    for f, k, hat in spec:
        a = skel.thickness[f]
        size = skel.N - a if hat else a
        if k == 0:
            sc = ring.mul(sc, size)
        elif size == 0:
            sc = 0
        else:
            dots.append((f, k, hat))
    if sc == 0:
        return None
    return sc, dots


def _push(out: LocalImage, term) -> None:
    if term is not None:
        out.append(term)


def _witt_local(skel: _Skeleton, params: ActionParams, n: int) -> Callable[[MoveTrace], LocalImage]:
    ring = params.ring
    s = params.s
    sbar = ring.add(1, ring.neg(s))

    def local(tr: MoveTrace) -> LocalImage:
        out: LocalImage = []
        if n == -1 or tr.kind in ("assoc", "isotopy", "decorate"):
            return out
        if tr.kind in ("cup", "cap", "saddle"):
            (f,) = tr.facets
            (a,) = tr.thickness
            m = params.N - a
            if tr.kind == "saddle":
                if not params.nu3.is_identically_zero():
                    raise NonSphericalWithNu3(
                        "nu3 must vanish identically on movies with saddles"
                    )
                conv = ring.neg(half_scalar(ring))
            else:
                nu = params.nu3(n)
                sign = 1 if tr.kind == "cup" else -1
                _push(out, _dotted(skel, ring.mul(sign, ring.mul(nu, a)), (f, n, True)))
                _push(out, _dotted(skel, ring.mul(-sign, ring.mul(nu, m)), (f, n, False)))
                conv = half_scalar(ring)
            for k in range(n + 1):
                _push(out, _dotted(skel, conv, (f, k, False), (f, n - k, True)))
            return out
        fa, fb, _ft = tr.facets
        a, b = tr.thickness
        nu1, nu2 = params.nu1(n), params.nu2(n)
        if tr.kind == "digon_cup":
            _push(out, _dotted(skel, ring.mul(nu1, b), (fa, n, False)))
            _push(out, _dotted(skel, ring.mul(nu2, a), (fb, n, False)))
            conv = s
        elif tr.kind == "digon_cap":
            _push(out, _dotted(skel, ring.neg(ring.mul(nu1, b)), (fa, n, False)))
            _push(out, _dotted(skel, ring.neg(ring.mul(nu2, a)), (fb, n, False)))
            conv = sbar
        elif tr.kind == "zip":
            _push(out, _dotted(skel, ring.mul(nu1, b), (fa, n, False)))
            _push(out, _dotted(skel, ring.mul(nu2, a), (fb, n, False)))
            conv = ring.neg(sbar)
        elif tr.kind == "unzip":
            _push(out, _dotted(skel, ring.neg(ring.mul(nu1, b)), (fa, n, False)))
            _push(out, _dotted(skel, ring.neg(ring.mul(nu2, a)), (fb, n, False)))
            conv = ring.neg(s)
        else:
            raise InputError(f"unknown move kind {tr.kind!r}")
        if conv != 0:
            for k in range(n + 1):
                _push(out, _dotted(skel, conv, (fa, k, False), (fb, n - k, False)))
        return out

    return local


def _sl2_local(
    skel: _Skeleton, params: ActionParams, gen: str
) -> Callable[[MoveTrace], LocalImage]:
    ring = params.ring
    t1, t2, t3 = params.t1, params.t2, params.t3
    t1b = ring.add(1, ring.neg(t1))
    t2b = ring.add(1, ring.neg(t2))
    t3b = ring.add(1, ring.neg(t3))

    def local(tr: MoveTrace) -> LocalImage:
        out: LocalImage = []
        if gen == "e" or tr.kind in ("assoc", "isotopy", "decorate"):
            return out
        if tr.kind in ("cup", "cap", "saddle"):
            (f,) = tr.facets
            (a,) = tr.thickness
            m = params.N - a
            if gen == "h":
                sc = ring.normalize(-a * m if tr.kind == "saddle" else a * m)
                if sc != 0:
                    out.append((sc, []))
            else:  # f
                if tr.kind == "cup":
                    ca, cm = ring.neg(ring.mul(t3, a)), ring.neg(ring.mul(t3b, m))
                elif tr.kind == "cap":
                    ca, cm = ring.neg(ring.mul(t3b, a)), ring.neg(ring.mul(t3, m))
                else:
                    half = half_scalar(ring)
                    ca, cm = ring.mul(half, a), ring.mul(half, m)
                _push(out, _dotted(skel, ca, (f, 1, True)))
                _push(out, _dotted(skel, cm, (f, 1, False)))
            return out
        fa, fb, _ft = tr.facets
        a, b = tr.thickness
        if gen == "h":
            ab = a * b
            if tr.kind == "digon_cup":
                sc = ring.mul(ab, ring.add(t1, t2))
            elif tr.kind == "digon_cap":
                sc = ring.mul(ab, ring.add(t1b, t2b))
            elif tr.kind == "zip":
                sc = ring.neg(ring.mul(ab, ring.add(t1b, t2b)))
            else:  # unzip
                sc = ring.neg(ring.mul(ab, ring.add(t1, t2)))
            if sc != 0:
                out.append((sc, []))
            return out
        # gen == "f"
        if tr.kind == "digon_cup":
            _push(out, _dotted(skel, ring.neg(ring.mul(t1, b)), (fa, 1, False)))
            _push(out, _dotted(skel, ring.neg(ring.mul(t2, a)), (fb, 1, False)))
        elif tr.kind == "digon_cap":
            _push(out, _dotted(skel, ring.neg(ring.mul(t1b, b)), (fa, 1, False)))
            _push(out, _dotted(skel, ring.neg(ring.mul(t2b, a)), (fb, 1, False)))
        elif tr.kind == "zip":
            _push(out, _dotted(skel, ring.mul(t1b, b), (fa, 1, False)))
            _push(out, _dotted(skel, ring.mul(t2b, a), (fb, 1, False)))
        else:  # unzip
            _push(out, _dotted(skel, ring.mul(t1, b), (fa, 1, False)))
            _push(out, _dotted(skel, ring.mul(t2, a), (fb, 1, False)))
        return out

    return local


_SL2_POLY = {
    "e": lambda p: witt_act(-1, p),
    "h": lambda p: witt_act(0, p) * 2,
    "f": lambda p: -witt_act(1, p),
}


def witt_reference(n, params, S):
    """The reference image of ``S`` under the half-Witt operator ``L_n``."""
    local = _witt_local(S.skeleton, params, n)
    return leibniz_reference(S, lambda p: witt_act(n, p), local)


def sl2_reference(gen, params, S):
    """The reference image of ``S`` under the sl2 generator ``gen``."""
    local = _sl2_local(S.skeleton, params, gen)
    return leibniz_reference(S, _SL2_POLY[gen], local)


def move_images(skel: _Skeleton, n: int, weights) -> LocalImage:
    """The merged local images of the operator of index ``n``, built one
    move at a time: each move's ``sum_k w_k p_k(first) p_{n-k}(second)``
    is expanded from its own weights, and the summands of all moves are
    merged by dot list, zero sums dropped.  ``weights`` is read once per
    move kind, in trace order."""
    if n == -1:
        return []
    ring, N = skel.ring, skel.N
    read: dict = {}
    acc: dict = {}
    for tr in skel.complex.traces:
        if tr.kind in ("assoc", "isotopy", "decorate"):
            continue
        if tr.kind not in read:
            read[tr.kind] = weights(tr.kind)
        x, y, z = read[tr.kind]
        if tr.kind in ("cup", "cap", "saddle"):
            (f,) = tr.facets
            (a,) = tr.thickness
            blocks = ((f, False, a), (f, True, N - a))
        else:
            fa, fb, _ft = tr.facets
            a, b = tr.thickness
            blocks = ((fa, False, a), (fb, False, b))
        for k, w in enumerate([x + y - z] if n == 0 else [x] + [z] * (n - 1) + [y]):
            w = ring.normalize(w)
            dots = []
            for (f, hat, size), j in zip(blocks, (k, n - k)):
                if j:
                    dots.append((f, j, hat))
                else:
                    w = ring.mul(w, size)
            if w != 0:
                dots = tuple(dots)
                acc[dots] = ring.add(acc[dots], w) if dots in acc else w
    return [(w, dots) for dots, w in acc.items() if w != 0]


def fraction_free_solve_reference(M, B):
    """``(rank, kernel, X)`` of ``statespace._fraction_free_solve(M, B)`` by
    the Bareiss pass that forms ``(p * a - f * b) / prev`` at every entry of
    every other row, identity updates included."""
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
        for i, row in enumerate(A):
            if i == r:
                continue
            f = row[c]
            for j in range(width):
                if j == c:
                    row[j] = zero
                    continue
                num = p * row[j] - f * prow[j]
                row[j] = zero if num.is_zero() else num.exact_div(prev)
        prev = p
        pivots.append(c)
    rank = len(pivots)
    if any(not e.is_zero() for row in A[rank:] for e in row[n:]):
        raise NotWellDefined("operator image is not in the span of the generator pairings")
    kernel = []
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


def induced_reference(op, params, gens):
    """``(matrix, certificate detail)`` of ``induced_action(op, params, gens)``,
    solved and certified on entries in the pigment alphabet."""
    sums = statespace._movie_sums(gens.movies, gens)
    n = len(sums)
    images = [actions.apply_operator(op, params, S) for S in sums]
    basis = ElementaryBasis(xvars(gens.N))
    pairs = statespace._pairings(sums + images, gens, basis)
    P = [[basis.from_e(v) for v in row] for row in pairs]
    base = lambda v: statespace._base_entry(v, gens.base)  # noqa: E731
    M = [[base(P[k][j]) for k in range(n)] for j in range(n)]
    B = [[base(P[n + k][j]) for k in range(n)] for j in range(n)]
    _, kernel, X = statespace._fraction_free_solve(M, B)
    if not kernel:
        return X, "pairing nondegenerate; kernel trivial"
    deriv = statespace.base_derivation(op) if gens.base == "equivariant" else None
    for vec in kernel:
        for j in range(n):
            acc = MultiPoly.zero(M[0][0].ring, M[0][0].vars)
            for k in range(n):
                acc = acc + B[j][k] * vec[k]
                if deriv is not None:
                    acc = acc + M[j][k] * deriv(vec[k])
            if not acc.is_zero():
                raise NotWellDefined(
                    f"operator {op} moves a pairing-kernel vector out of the"
                    f" kernel (generator coordinates {vec})"
                )
    return X, f"kernel of dimension {len(kernel)} is preserved"


def unfactored_value(F: FoamComplex, N: int, ring: CoefRing) -> MultiPoly:
    """The value of a closed foam as one sum over the colorings of the whole
    complex, with no split into connected components."""
    terms = [colored_eval(F, c, N, ring) for c in enumerate_colorings(F, N)]
    if not terms:
        return MultiPoly.zero(ring, xvars(N))
    return ratfun_sum(terms).as_polynomial()


def shape_value_reference(F: FoamComplex, N: int, ring: CoefRing, decmap: DecMap) -> MultiPoly:
    """The checked value of one dot-shape map on an undecorated closed foam:
    every coloring's value times the map's decorations there, summed in one
    ``ratfun_sum``, then required to be a symmetric polynomial, homogeneous
    of degree ``degree(F) + 2 * dots`` when nonzero."""
    polys = [(f, _orbit_poly(ring, shape)) for f, shape in decmap]
    terms = []
    for c in enumerate_colorings(F, N):
        r = colored_eval(F, c, N, ring)
        num = r.num
        for f, p in polys:
            num = num * _at_coloring(p, c[f], N)
        terms.append(RatFun(num, r.den))
    value = _checked_sum(terms, N, ring)
    _check_degree(value, lambda: degree(F, N) + 2 * _dots(s for _, s in decmap))
    return value


def divided_difference_value(table, decmap: DecMap) -> MultiPoly:
    """A shape table's value of ``decmap`` by the earlier route, unchecked:
    the lifted classes over their common denominator and each pushforward
    orbit by :func:`pushforward_reference`, summed in ``X1..XN``, then
    written in ``e_1..e_N`` by :func:`to_e_reference`."""
    specs = [table._specialized(f, shape) for f, shape in decmap]
    total = MultiPoly.zero(table.ring, xvars(table.N))
    for lift, members in table.classes:
        for k, num in members:
            for spec in specs:
                num = num * spec[k]
            total = total + lift * num
    if not total.is_zero():
        total = RatFun(total, table.lcd).as_polynomial()
    for k, g, blocks in table.pushforwards:
        for spec in specs:
            g = g * spec[k]
        total = total + pushforward_reference(g, blocks)
    return to_e_reference(table.basis, total)


def eval_scalar(poly: MultiPoly, values: dict[str, Scalar]) -> Scalar:
    """``poly`` at the point ``values`` (a value for each of its variables),
    exactly, in its coefficient ring."""
    ring = poly.ring
    total: Scalar = 0
    for e, c in poly.terms.items():
        term = c
        for v, k in zip(poly.vars, e):
            if k:
                term = ring.mul(term, ring.normalize(values[v]) ** k)
        total = ring.add(total, term)
    return total


def specialize_reference(entry: MultiPoly, values: dict[str, int], p: int) -> int:
    """An entry at a point modulo ``p``: evaluated exactly, then reduced."""
    s = eval_scalar(entry, values)
    if isinstance(s, int):
        return s % p
    if s.denominator % p == 0:
        raise WrongRing(f"coefficient denominator {s.denominator} is not invertible mod {p}")
    return s.numerator * pow(s.denominator, -1, p) % p


def rank_reference(G, rng, p: int) -> dict[int, int]:
    """One trial of ``graded_rank``: the entries in ``X1..XN`` at a random
    point of the pigment alphabet mod ``p``, row-reduced with pivots chosen
    greedily in generator-degree order."""
    n, m = G.shape
    vs = xvars(G.N)
    values = dict(zip(vs, rng.sample(range(1, p), len(vs))))
    spec = [
        [statespace._specialize(e, values, p) for e in row] for row in G.entries
    ]
    order = sorted(range(n), key=lambda i: (G.row_degrees[i], i))
    pivots: list[tuple[int, list[int]]] = []  # (pivot column, normalized row)
    rank: dict[int, int] = {}
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


def derive_matrix(op: str, M):
    """The base derivation of ``op`` on every entry, in ``X1..XN``."""
    d = statespace.base_derivation(op)
    return tuple(tuple(d(e) for e in row) for row in M)


def operator_compose_reference(a, b):
    """``operator_compose`` on the matrices in ``X1..XN``."""
    if a.base != b.base:
        raise InputError("operators live over different bases")
    out = statespace.mat_mul(a.matrix, b.matrix)
    if a.base == "equivariant":
        out = statespace.mat_add(out, derive_matrix(a.op, b.matrix))
    return out


def operator_power_reference(a, k: int):
    """``operator_power`` on the matrix in ``X1..XN``."""
    out = a.matrix
    for _ in range(k - 1):
        step = statespace.mat_mul(a.matrix, out)
        if a.base == "equivariant":
            step = statespace.mat_add(step, derive_matrix(a.op, out))
        out = step
    return out


def qbinom_dense(m: int, a: int) -> dict[int, int]:
    """The balanced quantum binomial ``[m, a]`` as ``{q-exponent: coefficient}``,
    empty unless ``0 <= a <= m``: the Gaussian binomial in ``t = q^2`` by dense
    multiplication and exact division, recentered by ``a (m - a)``."""
    if a < 0 or a > m:
        return {}

    def mul(x: list[int], y: list[int]) -> list[int]:
        out = [0] * (len(x) + len(y) - 1)
        for i, u in enumerate(x):
            for j, v in enumerate(y):
                out[i + j] += u * v
        return out

    def div(x: list[int], y: list[int]) -> list[int]:
        x = list(x)
        out = [0] * (len(x) - len(y) + 1)
        for i in range(len(out) - 1, -1, -1):
            c = x[i + len(y) - 1] // y[-1]
            out[i] = c
            for j, v in enumerate(y):
                x[i + j] -= c * v
        if any(x):
            raise ArithmeticError("inexact dense division")
        return out

    num = [1]
    for k in range(1, a + 1):
        # times (1 + t + ... + t^(m-k)) / (1 + t + ... + t^(k-1))
        num = div(mul(num, [1] * (m - k + 1)), [1] * k)
    shift = a * (m - a)
    return {2 * d - shift: c for d, c in enumerate(num) if c}


def colex_subsets_reference(N: int, k: int) -> list[frozenset[int]]:
    """Every ``k``-subset of ``1..N``, sorted by the reversed tuple."""
    combos = sorted(
        combinations(range(1, N + 1), k), key=lambda s: tuple(reversed(s))
    )
    return [frozenset(c) for c in combos]


def enumerate_colorings_reference(F: FoamComplex, N: int) -> list[Coloring]:
    """Every admissible coloring, in the package's order: backtracking over
    facets in id order and, at every facet, every ``k``-subset of ``1..N``
    in colex order, kept when it agrees with each binding segment whose
    facets are assigned."""
    ids = F.facet_ids()
    by_facet: dict[str, list[tuple[str, str, str]]] = {}
    for b in F.bindings.values():
        for seg in {tuple(s) for s in b.segments}:
            for f in seg:
                by_facet.setdefault(f, []).append(seg)
    assignment: dict[str, frozenset[int]] = {}
    out: list[Coloring] = []

    def consistent(f: str) -> bool:
        for A, B, TH in by_facet.get(f, ()):  # noqa: N806
            ca, cb, ct = assignment.get(A), assignment.get(B), assignment.get(TH)
            if ca is not None and cb is not None:
                if ca & cb or (ct is not None and (ca | cb) != ct):
                    return False
            if ct is not None and any(x is not None and not x <= ct for x in (ca, cb)):
                return False
        return True

    def rec(i: int) -> None:
        if i == len(ids):
            out.append(dict(assignment))
            return
        f = ids[i]
        for s in colex_subsets_reference(N, F.facets[f].thickness):
            assignment[f] = s
            if consistent(f):
                rec(i + 1)
        assignment.pop(f, None)

    rec(0)
    return out


def monochrome_euler_reference(F: FoamComplex, c: Coloring, i: int) -> int:
    """Euler characteristic of the surface of facets containing i, by one scan."""
    total = 0
    for f in F.facets.values():
        if i in c[f.id]:
            total += f.chi
    for b in F.bindings.values():
        # the seam lies in the surface iff the thick facet contains i
        if i in c[b.thick]:
            if not b.is_circle:
                total -= 1
    for v in F.vertices.values():
        if any(i in c[f] for f in v.facets):
            total += 1
    return total


def _in_bichrome(color: frozenset[int], i: int, j: int) -> bool:
    return (i in color) != (j in color)


def _binding_separates(c: Coloring, seg: tuple[str, str, str], i: int, j: int) -> bool:
    A, B, _ = seg  # noqa: N806
    return (i in c[A] and j in c[B]) or (j in c[A] and i in c[B])


def bichrome_data_reference(F: FoamComplex, c: Coloring, i: int, j: int) -> tuple[int, int]:
    """(chi of the bichrome surface of (i, j), positive-circle count), by one
    scan of the complex for this pair."""
    if not i < j:
        raise ValueError("pigments must satisfy i < j")
    chi = 0
    for f in F.facets.values():
        if _in_bichrome(c[f.id], i, j):
            chi += f.chi
    for b in F.bindings.values():
        if any(_in_bichrome(c[f], i, j) for f in (b.sideA, b.sideB, b.thick)):
            if not b.is_circle:
                chi -= 1
    for v in F.vertices.values():
        if any(_in_bichrome(c[f], i, j) for f in v.facets):
            chi += 1

    # separating circles and their signs
    theta_plus = 0
    separating = [
        b for b in F.bindings.values() if _binding_separates(c, b.segments[0], i, j)
    ]

    def circle_sign(bs: list[Binding]) -> bool:
        signs = {i in c[s[0]] for b in bs for s in b.segments}
        if len(signs) != 1:
            raise SeamSignInconsistent(
                f"mixed seam signs for pigments ({i},{j}) on bindings "
                f"{[b.id for b in bs]}"
            )
        return signs.pop()

    circles = [b for b in separating if b.is_circle]
    intervals = [b for b in separating if not b.is_circle]
    for b in circles:
        if circle_sign([b]):
            theta_plus += 1
    # chain interval bindings through singular vertices
    if intervals:
        adj: dict[str, list[Binding]] = {}
        for b in intervals:
            for v in b.endpoints:
                adj.setdefault(v, []).append(b)
        for v, bs in adj.items():
            if len(bs) not in (0, 2):
                raise SeamSignInconsistent(
                    f"separating seam has odd valence at vertex {v}"
                )
        seen: set[str] = set()
        for b in intervals:
            if b.id in seen:
                continue
            comp = [b]
            seen.add(b.id)
            frontier = [b]
            while frontier:
                cur = frontier.pop()
                for v in cur.endpoints:
                    for nb in adj[v]:
                        if nb.id not in seen:
                            seen.add(nb.id)
                            comp.append(nb)
                            frontier.append(nb)
            if circle_sign(comp):
                theta_plus += 1

    return chi, theta_plus


def colored_eval_reference(
    F: FoamComplex, c: Coloring, N: int, ring: CoefRing = ZZ
) -> RatFun:
    """The signed rational value of one coloring, with one Euler scan per
    pigment and per pair and every decoration canonicalized at this
    coloring."""
    vs = xvars(N)
    sign_exp = 0
    for i in range(1, N + 1):
        chi_i = monochrome_euler_reference(F, c, i)
        if chi_i % 2:
            raise OddEuler(f"pigment {i}: surface has odd Euler characteristic {chi_i}")
        sign_exp += i * (chi_i // 2)

    num = MultiPoly.const(ring, vs, 1)
    den: dict[tuple[int, int], int] = {}
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            chi_ij, theta_plus = bichrome_data_reference(F, c, i, j)
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
                diff = MultiPoly.var(ring, vs, vs[i - 1]) - MultiPoly.var(ring, vs, vs[j - 1])
                for _ in range(-q):
                    num = num * diff

    for f in F.facets.values():
        for dec in f.decorations:
            p = _canonical_decoration(dec, f.thickness, N, ring)
            num = num * _at_coloring(p, c[f.id], N)

    if sign_exp % 2:
        num = -num
    return RatFun(num, den)


_MOVE_LOCAL_DEGREE = {
    "cup": lambda a, b, N: -a * (N - a),
    "cap": lambda a, b, N: -a * (N - a),
    "saddle": lambda a, b, N: a * (N - a),
    "zip": lambda a, b, N: a * b,
    "unzip": lambda a, b, N: a * b,
    "digon_cup": lambda a, b, N: -a * b,
    "digon_cap": lambda a, b, N: -a * b,
}


def degree_incremental_reference(mov: Movie, N: int) -> int:
    """Degree as the sum of the local degrees of the basic moves, each read
    from the slice the move acts on."""
    total = 0
    webs = mov.slices()
    for idx, mv in enumerate(mov.moves):
        if isinstance(mv, Decorate):
            total += _decoration_degree(mv.poly)
        elif isinstance(mv, Cup):
            total += _MOVE_LOCAL_DEGREE["cup"](mv.thickness, 0, N)
        elif isinstance(mv, Cap):
            a = webs[idx].edges[mv.edge].thickness
            total += _MOVE_LOCAL_DEGREE["cap"](a, 0, N)
        elif isinstance(mv, Saddle):
            a = webs[idx].edges[mv.edge1].thickness
            total += _MOVE_LOCAL_DEGREE["saddle"](a, 0, N)
        elif isinstance(mv, Zip):
            a = webs[idx].edges[mv.edge_a].thickness
            b = webs[idx].edges[mv.edge_b].thickness
            total += _MOVE_LOCAL_DEGREE["zip"](a, b, N)
        elif isinstance(mv, Unzip):
            t = webs[idx].edges[mv.thick_edge]
            mvx = webs[idx].vertices[t.tail]
            a = webs[idx].edges[mvx.ins[0]].thickness
            b = webs[idx].edges[mvx.ins[1]].thickness
            total += _MOVE_LOCAL_DEGREE["unzip"](a, b, N)
        elif isinstance(mv, DigonCup):
            total += _MOVE_LOCAL_DEGREE["digon_cup"](mv.a, mv.b, N)
        elif isinstance(mv, DigonCap):
            a = webs[idx].edges[mv.edge_a].thickness
            b = webs[idx].edges[mv.edge_b].thickness
            total += _MOVE_LOCAL_DEGREE["digon_cap"](a, b, N)
    return total


def apply_assoc_reference(w: Web, m: Assoc) -> Web:
    """Reassociate two adjacent merge vertices across their middle edge."""
    g = _get_edge(w, m.mid_edge)
    if g.is_circle:
        raise PatternMismatch("assoc middle edge must join two vertices")
    v1 = _get_vertex(w, g.tail)
    v2 = _get_vertex(w, g.head)
    if v1.kind != "merge" or v2.kind != "merge":
        raise PatternMismatch("assoc requires two merge vertices")
    if v1.outs != (m.mid_edge,):
        raise PatternMismatch("assoc: middle edge must be the full output of v1")
    if m.mid_edge not in v2.ins:
        raise PatternMismatch("assoc: middle edge must feed v2")
    x_id, y_id = v1.ins
    slot = v2.ins.index(m.mid_edge)
    if slot == 0:
        # (x+y)+z -> x+(y+z)
        z_id = v2.ins[1]
        new_g = Edge(m.out_mid, w.edges[y_id].thickness + w.edges[z_id].thickness,
                     v1.id, v2.id)
        nv1 = Vertex(v1.id, "merge", (y_id, z_id), (m.out_mid,))
        nv2 = Vertex(v2.id, "merge", (x_id, m.out_mid), v2.outs)
        moved, kept = z_id, x_id
    else:
        # z+(x+y) -> (z+x)+y ... mirror pattern with the middle in slot 1
        z_id = v2.ins[0]
        new_g = Edge(m.out_mid, w.edges[z_id].thickness + w.edges[x_id].thickness,
                     v1.id, v2.id)
        nv1 = Vertex(v1.id, "merge", (z_id, x_id), (m.out_mid,))
        nv2 = Vertex(v2.id, "merge", (m.out_mid, y_id), v2.outs)
        moved, kept = z_id, y_id
    if moved in (x_id, y_id) or len({x_id, y_id, z_id}) != 3:
        raise PatternMismatch("assoc requires three distinct thin edges")
    new = w.with_changes(drop_edges=[m.mid_edge], drop_vertices=[v1.id, v2.id],
                         add_edges=[new_g], add_vertices=[nv1, nv2])
    # the moved edge now ends at v1 instead of v2; the kept edge moves to v2
    em = new.edges[moved]
    new = Web(
        {**new.edges, moved: Edge(em.id, em.thickness, em.tail, v1.id)},
        new.vertices,
    )
    ek = new.edges[kept]
    new = Web(
        {**new.edges, kept: Edge(ek.id, ek.thickness, ek.tail, v2.id)},
        new.vertices,
    )
    return new


def apply_coassoc_reference(w: Web, m: Coassoc) -> Web:
    """Reassociate two adjacent split vertices across their middle edge."""
    g = _get_edge(w, m.mid_edge)
    if g.is_circle:
        raise PatternMismatch("coassoc middle edge must join two vertices")
    v1 = _get_vertex(w, g.tail)
    v2 = _get_vertex(w, g.head)
    if v1.kind != "split" or v2.kind != "split":
        raise PatternMismatch("coassoc requires two split vertices")
    if v2.ins != (m.mid_edge,):
        raise PatternMismatch("coassoc: middle edge must be the full input of v2")
    if m.mid_edge not in v1.outs:
        raise PatternMismatch("coassoc: middle edge must come from v1")
    x_id, y_id = v2.outs
    slot = v1.outs.index(m.mid_edge)
    if slot == 0:
        z_id = v1.outs[1]
        new_g = Edge(m.out_mid, w.edges[y_id].thickness + w.edges[z_id].thickness,
                     v1.id, v2.id)
        nv1 = Vertex(v1.id, "split", v1.ins, (x_id, m.out_mid))
        nv2 = Vertex(v2.id, "split", (m.out_mid,), (y_id, z_id))
        moved, kept = z_id, x_id
    else:
        z_id = v1.outs[0]
        new_g = Edge(m.out_mid, w.edges[z_id].thickness + w.edges[x_id].thickness,
                     v1.id, v2.id)
        nv1 = Vertex(v1.id, "split", v1.ins, (m.out_mid, y_id))
        nv2 = Vertex(v2.id, "split", (m.out_mid,), (z_id, x_id))
        moved, kept = z_id, y_id
    if len({x_id, y_id, z_id}) != 3:
        raise PatternMismatch("coassoc requires three distinct thin edges")
    # v2 is listed before v1, as the package's association of the reversed
    # web lists the tail of its middle edge first
    new = w.with_changes(drop_edges=[m.mid_edge], drop_vertices=[v1.id, v2.id],
                         add_edges=[new_g], add_vertices=[nv2, nv1])
    em = new.edges[moved]
    new = Web(
        {**new.edges, moved: Edge(em.id, em.thickness, v2.id, em.head)},
        new.vertices,
    )
    ek = new.edges[kept]
    new = Web(
        {**new.edges, kept: Edge(ek.id, ek.thickness, v1.id, ek.head)},
        new.vertices,
    )
    return new


def slices_reference(mov: Movie) -> list[Web]:
    """Every slice of ``mov``, each move applied by the reference."""
    webs = [mov.input_web]
    for mv in mov.moves:
        webs.append(apply_move_reference(webs[-1], mv))
    return webs


def apply_move_reference(w: Web, m) -> Web:
    """A basic move applied to a web slice, one pattern and one rewiring
    per move."""
    if isinstance(m, (Decorate, Isotopy)):
        if isinstance(m, Decorate):
            _get_edge(w, m.edge)
        return w

    if isinstance(m, Cup):
        if m.thickness < 1:
            raise PatternMismatch("cup thickness must be >= 1")
        return w.with_changes(add_edges=[Edge(m.out_edge, m.thickness, None, None)])

    if isinstance(m, Cap):
        e = _get_edge(w, m.edge)
        if not e.is_circle:
            raise PatternMismatch(f"cap requires a circle edge, got {m.edge}")
        return w.with_changes(drop_edges=[m.edge])

    if isinstance(m, Saddle):
        e1 = _get_edge(w, m.edge1)
        e2 = _get_edge(w, m.edge2)
        if e1.thickness != e2.thickness:
            raise PatternMismatch("saddle requires equal thicknesses")
        th = e1.thickness
        if m.edge1 == m.edge2:
            if e1.is_circle:
                # one circle splits into two circles
                return w.with_changes(
                    drop_edges=[m.edge1],
                    add_edges=[
                        Edge(m.out1, th, None, None),
                        Edge(m.out2, th, None, None),
                    ],
                )
            # interval self-saddle: interval + split-off circle
            out = Edge(m.out1, th, e1.tail, e1.head)
            new = w.with_changes(
                drop_edges=[m.edge1],
                add_edges=[out, Edge(m.out2, th, None, None)],
            )
            return new.replace_edge_endpoint_refs(m.edge1, m.out1, [e1.tail, e1.head])
        if e1.is_circle and e2.is_circle:
            # two circles merge into one
            return w.with_changes(
                drop_edges=[m.edge1, m.edge2],
                add_edges=[Edge(m.out1, th, None, None)],
            )
        if e1.is_circle or e2.is_circle:
            circ, seg = (e1, e2) if e1.is_circle else (e2, e1)
            out = Edge(m.out1, th, seg.tail, seg.head)
            new = w.with_changes(
                drop_edges=[m.edge1, m.edge2], add_edges=[out]
            )
            return new.replace_edge_endpoint_refs(seg.id, m.out1, [seg.tail, seg.head])
        # two interval edges: cross the connections
        out1 = Edge(m.out1, th, e1.tail, e2.head)
        out2 = Edge(m.out2, th, e2.tail, e1.head)
        new = w.with_changes(drop_edges=[m.edge1, m.edge2], add_edges=[out1, out2])
        new = new.replace_edge_endpoint_refs(m.edge1, m.out1, [e1.tail])
        new = new.replace_edge_endpoint_refs(m.edge2, m.out1, [e2.head])
        new = new.replace_edge_endpoint_refs(m.edge2, m.out2, [e2.tail])
        new = new.replace_edge_endpoint_refs(m.edge1, m.out2, [e1.head])
        return new

    if isinstance(m, Zip):
        if m.edge_a == m.edge_b:
            raise PatternMismatch("zip requires two distinct edges")
        ea = _get_edge(w, m.edge_a)
        eb = _get_edge(w, m.edge_b)
        tha, thb = ea.thickness, eb.thickness
        merge = Vertex(m.merge_v, "merge", (m.out_a1, m.out_b1), (m.thick_edge,))
        split = Vertex(m.split_v, "split", (m.thick_edge,), (m.out_a2, m.out_b2))
        thick = Edge(m.thick_edge, tha + thb, m.merge_v, m.split_v)
        new_edges = [thick]
        drop = [m.edge_a, m.edge_b]
        fixups = []
        if ea.is_circle:
            # the remaining arc runs from the split back around to the merge
            if m.out_a1 != m.out_a2:
                raise PatternMismatch("zip on a circle must reuse one arc id")
            new_edges.append(Edge(m.out_a1, tha, m.split_v, m.merge_v))
        else:
            new_edges.append(Edge(m.out_a1, tha, ea.tail, m.merge_v))
            new_edges.append(Edge(m.out_a2, tha, m.split_v, ea.head))
            fixups.append((m.edge_a, m.out_a1, ea.tail))
            fixups.append((m.edge_a, m.out_a2, ea.head))
        if eb.is_circle:
            if m.out_b1 != m.out_b2:
                raise PatternMismatch("zip on a circle must reuse one arc id")
            new_edges.append(Edge(m.out_b1, thb, m.split_v, m.merge_v))
        else:
            new_edges.append(Edge(m.out_b1, thb, eb.tail, m.merge_v))
            new_edges.append(Edge(m.out_b2, thb, m.split_v, eb.head))
            fixups.append((m.edge_b, m.out_b1, eb.tail))
            fixups.append((m.edge_b, m.out_b2, eb.head))
        new = w.with_changes(
            drop_edges=drop, add_edges=new_edges, add_vertices=[merge, split]
        )
        for old, fresh, at in fixups:
            new = new.replace_edge_endpoint_refs(old, fresh, [at])
        return new

    if isinstance(m, Unzip):
        t = _get_edge(w, m.thick_edge)
        if t.is_circle:
            raise PatternMismatch("unzip requires an edge between two vertices")
        mv = _get_vertex(w, t.tail)
        sv = _get_vertex(w, t.head)
        if mv.kind != "merge" or sv.kind != "split":
            raise PatternMismatch("unzip requires a merge-to-split edge")
        if mv.outs != (m.thick_edge,) or sv.ins != (m.thick_edge,):
            raise PatternMismatch("unzip pattern does not match")
        a1, b1 = mv.ins
        a2, b2 = sv.outs
        ea1, eb1 = w.edges[a1], w.edges[b1]
        ea2, eb2 = w.edges[a2], w.edges[b2]
        if ea1.thickness != ea2.thickness or eb1.thickness != eb2.thickness:
            raise PatternMismatch("unzip slot thicknesses do not match")
        drop = {m.thick_edge, a1, b1, a2, b2}
        add = []
        fixups = []
        for lo, hi, out in ((ea1, ea2, m.out_a), (eb1, eb2, m.out_b)):
            if lo.id == hi.id:
                # the thin edge loops from split back to merge: it closes up
                add.append(Edge(out, lo.thickness, None, None))
            else:
                add.append(Edge(out, lo.thickness, lo.tail, hi.head))
                fixups.append((lo.id, out, lo.tail))
                fixups.append((hi.id, out, hi.head))
        new = w.with_changes(
            drop_edges=drop, drop_vertices=[mv.id, sv.id], add_edges=add
        )
        for old, fresh, at in fixups:
            if at is not None:
                new = new.replace_edge_endpoint_refs(old, fresh, [at])
        return new

    if isinstance(m, DigonCup):
        e = _get_edge(w, m.edge)
        if e.thickness != m.a + m.b:
            raise PatternMismatch(
                f"digon-cup on {m.edge}: thickness {e.thickness} != {m.a}+{m.b}"
            )
        split = Vertex(m.split_v, "split", (m.out_low,), (m.edge_a, m.edge_b))
        merge = Vertex(m.merge_v, "merge", (m.edge_a, m.edge_b), (m.out_high,))
        da = Edge(m.edge_a, m.a, m.split_v, m.merge_v)
        db = Edge(m.edge_b, m.b, m.split_v, m.merge_v)
        add = [da, db]
        fixups = []
        if e.is_circle:
            if m.out_low != m.out_high:
                raise PatternMismatch("digon-cup on a circle must reuse one arc id")
            add.append(Edge(m.out_low, e.thickness, m.merge_v, m.split_v))
        else:
            add.append(Edge(m.out_low, e.thickness, e.tail, m.split_v))
            add.append(Edge(m.out_high, e.thickness, m.merge_v, e.head))
            fixups.append((m.edge, m.out_low, e.tail))
            fixups.append((m.edge, m.out_high, e.head))
        new = w.with_changes(
            drop_edges=[m.edge], add_edges=add, add_vertices=[split, merge]
        )
        for old, fresh, at in fixups:
            new = new.replace_edge_endpoint_refs(old, fresh, [at])
        return new

    if isinstance(m, DigonCap):
        da = _get_edge(w, m.edge_a)
        db = _get_edge(w, m.edge_b)
        if da.tail != db.tail or da.head != db.head or da.tail is None:
            raise PatternMismatch("digon-cap requires a parallel digon pair")
        sv = _get_vertex(w, da.tail)
        mv = _get_vertex(w, da.head)
        if sv.kind != "split" or mv.kind != "merge":
            raise PatternMismatch("digon-cap requires split-to-merge digon")
        if sv.outs != (m.edge_a, m.edge_b) or mv.ins != (m.edge_a, m.edge_b):
            raise PatternMismatch("digon-cap slot order does not match")
        lo = w.edges[sv.ins[0]]
        hi = w.edges[mv.outs[0]]
        drop = {m.edge_a, m.edge_b, lo.id, hi.id}
        fixups = []
        if lo.id == hi.id:
            add = [Edge(m.out_edge, lo.thickness, None, None)]
        else:
            add = [Edge(m.out_edge, lo.thickness, lo.tail, hi.head)]
            fixups.append((lo.id, m.out_edge, lo.tail))
            fixups.append((hi.id, m.out_edge, hi.head))
        new = w.with_changes(
            drop_edges=drop, drop_vertices=[sv.id, mv.id], add_edges=add
        )
        for old, fresh, at in fixups:
            if at is not None:
                new = new.replace_edge_endpoint_refs(old, fresh, [at])
        return new

    if isinstance(m, Assoc):
        return apply_assoc_reference(w, m)

    if isinstance(m, Coassoc):
        return apply_coassoc_reference(w, m)

    raise PatternMismatch(f"unknown move {m!r}")


def mirror_reference(m: Movie) -> Movie:
    """Time-reverse a movie, reading the reference slices: each move is
    replaced by its reverse.

    The reversal swaps cup/cap, zip/unzip and digon-cup/digon-cap; a saddle
    reverses to a saddle and a reassociation to the reassociation of the
    rewired pattern (the web arrows themselves are unchanged).  Decorations
    are preserved on the same facet.
    """
    webs = slices_reference(m)
    rev: list[BasicMove] = []
    for idx in range(len(m.moves) - 1, -1, -1):
        mv = m.moves[idx]
        before, after = webs[idx], webs[idx + 1]
        if isinstance(mv, (Decorate, Isotopy)):
            rev.append(mv)
        elif isinstance(mv, Cup):
            rev.append(Cap(mv.out_edge))
        elif isinstance(mv, Cap):
            rev.append(Cup(before.edges[mv.edge].thickness, mv.edge))
        elif isinstance(mv, Saddle):
            if mv.out2 is None:
                # a merge reverses to a self-saddle, whose first output is
                # the interval when one of the merged edges was an interval
                e1, e2 = mv.edge1, mv.edge2
                if before.edges[e1].is_circle and not before.edges[e2].is_circle:
                    e1, e2 = e2, e1
                rev.append(Saddle(mv.out1, mv.out1, e1, e2))
            elif mv.edge1 == mv.edge2:
                rev.append(Saddle(mv.out1, mv.out2, mv.edge1, None))
            else:
                rev.append(Saddle(mv.out1, mv.out2, mv.edge1, mv.edge2))
        elif isinstance(mv, Zip):
            rev.append(Unzip(mv.thick_edge, mv.edge_a, mv.edge_b))
        elif isinstance(mv, Unzip):
            t = before.edges[mv.thick_edge]
            mvx = before.vertices[t.tail]
            svx = before.vertices[t.head]
            a1, b1 = mvx.ins
            a2, b2 = svx.outs
            rev.append(
                Zip(mv.out_a, mv.out_b, t.tail, t.head, mv.thick_edge, a1, a2, b1, b2)
            )
        elif isinstance(mv, DigonCup):
            rev.append(DigonCap(mv.edge_a, mv.edge_b, mv.edge))
        elif isinstance(mv, DigonCap):
            da = before.edges[mv.edge_a]
            db = before.edges[mv.edge_b]
            sv = da.tail
            mvv = da.head
            low = before.vertices[sv].ins[0]
            high = before.vertices[mvv].outs[0]
            rev.append(
                DigonCup(
                    mv.out_edge, da.thickness, db.thickness, sv, mvv,
                    mv.edge_a, mv.edge_b, low, high,
                )
            )
        elif isinstance(mv, Assoc):
            rev.append(Assoc(mv.out_mid, mv.mid_edge))
        elif isinstance(mv, Coassoc):
            rev.append(Coassoc(mv.out_mid, mv.mid_edge))
        else:
            raise PatternMismatch(f"cannot mirror {mv!r}")
    return Movie(m.output_web, tuple(rev))


def compile_movie_reference(mov: Movie) -> FoamComplex:
    """Compile a movie into its stratified foam complex, on the reference
    slices.

    Facet Euler characteristics are exact compact-surface values for closed
    movies (and relative to the boundary web otherwise).
    """
    webs = slices_reference(mov)
    T = len(mov.moves)
    uf = _UF()
    facet_of: dict[str, str] = {}  # current edge id -> facet label
    chi: dict[str, int] = {}
    thick_of: dict[str, int] = {}
    decs: dict[str, list[SymPoly]] = {}
    label_order: list[str] = []
    n_label = 0

    def new_facet(thickness: int) -> str:
        nonlocal n_label
        n_label += 1
        lbl = f"F{n_label:04d}"
        uf.make(lbl)
        chi[lbl] = 0
        thick_of[lbl] = thickness
        decs[lbl] = []
        label_order.append(lbl)
        return lbl

    def bump(lbl: str, d: int) -> None:
        chi[lbl] = chi.get(lbl, 0) + d

    # seed facets for a nonempty input web
    for e in webs[0].edges.values():
        facet_of[e.id] = new_facet(e.thickness)

    buf = _UF()  # binding union-find
    brecs: dict[str, _BindingRec] = {}
    n_bind = 0
    binding_of_vertex: dict[str, str] = {}

    def new_binding(segment: tuple[str, str, str], ends: Iterable[str]) -> str:
        nonlocal n_bind
        n_bind += 1
        bid = f"b{n_bind:04d}"
        buf.make(bid)
        rec = _BindingRec()
        rec.segments.append(segment)
        rec.open_ends |= set(ends)
        brecs[bid] = rec
        return bid

    def binding_join(b1: str, b2: str, segment: tuple[str, str, str], drop_ends) -> None:
        r1, r2 = buf.find(b1), buf.find(b2)
        if r1 == r2:
            rec = brecs[r1]
            rec.segments.append(segment)
            rec.open_ends -= set(drop_ends)
        else:
            root = buf.union(r1, r2)
            other = r2 if root == r1 else r1
            rec, o = brecs[root], brecs[other]
            rec.segments += o.segments
            rec.endpoints += o.endpoints
            rec.open_ends |= o.open_ends
            rec.segments.append(segment)
            rec.open_ends -= set(drop_ends)
            del brecs[other]

    # seed boundary seam arcs for vertices already present in the input web
    for v in webs[0].vertices.values():
        if v.kind == "merge":
            ea, eb = v.ins
            et = v.outs[0]
        else:
            et = v.ins[0]
            ea, eb = v.outs
        binding_of_vertex[v.id] = new_binding(
            (facet_of[ea], facet_of[eb], facet_of[et]), (v.id,)
        )

    sing: dict[str, SingularVertex] = {}
    n_sing = 0
    traces: list[MoveTrace] = []
    snapshots: list[dict[str, str]] = [dict(facet_of)]

    for t, mv in enumerate(mov.moves):
        before = webs[t]
        after = webs[t + 1]

        consumed: set[str] = set()
        if isinstance(mv, Cap):
            consumed = {mv.edge}
        elif isinstance(mv, Saddle):
            consumed = {mv.edge1, mv.edge2}
        elif isinstance(mv, Zip):
            consumed = {mv.edge_a, mv.edge_b}
        elif isinstance(mv, Unzip):
            tke = before.edges[mv.thick_edge]
            mvx, svx = before.vertices[tke.tail], before.vertices[tke.head]
            consumed = {mv.thick_edge, *mvx.ins, *svx.outs}
        elif isinstance(mv, DigonCup):
            consumed = {mv.edge}
        elif isinstance(mv, DigonCap):
            da = before.edges[mv.edge_a]
            svx, mvx = before.vertices[da.tail], before.vertices[da.head]
            consumed = {mv.edge_a, mv.edge_b, svx.ins[0], mvx.outs[0]}
        elif isinstance(mv, (Assoc, Coassoc)):
            consumed = {mv.mid_edge}

        # slab product contributions of unchanged edges
        for e in before.edges.values():
            if e.id not in consumed and not e.is_circle:
                bump(facet_of[e.id], +1)

        # move-local contributions and facet tracking
        if isinstance(mv, (Decorate, Isotopy)):
            if isinstance(mv, Decorate):
                lbl = facet_of[mv.edge]
                decs[uf.find(lbl)].append(mv.poly)
                traces.append(MoveTrace("decorate", t, (lbl,)))
            else:
                traces.append(MoveTrace("isotopy", t))
        elif isinstance(mv, Cup):
            lbl = new_facet(mv.thickness)
            facet_of[mv.out_edge] = lbl
            bump(lbl, +1)
            traces.append(MoveTrace("cup", t, (lbl,), (mv.thickness,)))
        elif isinstance(mv, Cap):
            lbl = facet_of.pop(mv.edge)
            bump(lbl, +1)
            traces.append(MoveTrace("cap", t, (lbl,), (before.edges[mv.edge].thickness,)))
        elif isinstance(mv, Saddle):
            e1 = before.edges[mv.edge1]
            e2 = before.edges[mv.edge2]
            l1 = facet_of.pop(mv.edge1)
            l2 = facet_of.pop(mv.edge2, l1)
            root = uf.union(l1, l2)
            outs = [
                out
                for out in (mv.out1, mv.out2)
                if out is not None and out in after.edges
            ]
            # slab piece value: (number of interval output strands) - 1
            bump(root, sum(1 for o in outs if not after.edges[o].is_circle) - 1)
            for out in outs:
                facet_of[out] = root
            traces.append(MoveTrace("saddle", t, (root,), (e1.thickness,)))
        elif isinstance(mv, Zip):
            ea = before.edges[mv.edge_a]
            eb = before.edges[mv.edge_b]
            fa = facet_of.pop(mv.edge_a)
            fb = facet_of.pop(mv.edge_b)
            ft = new_facet(ea.thickness + eb.thickness)
            facet_of[mv.thick_edge] = ft
            for out in (mv.out_a1, mv.out_a2):
                facet_of[out] = fa
            for out in (mv.out_b1, mv.out_b2):
                facet_of[out] = fb
            bump(fa, 0 if ea.is_circle else 1)
            bump(fb, 0 if eb.is_circle else 1)
            bump(ft, +1)
            bid = new_binding((fa, fb, ft), (mv.merge_v, mv.split_v))
            binding_of_vertex[mv.merge_v] = bid
            binding_of_vertex[mv.split_v] = bid
            traces.append(MoveTrace("zip", t, (fa, fb, ft),
                                    (ea.thickness, eb.thickness)))
        elif isinstance(mv, Unzip):
            tke = before.edges[mv.thick_edge]
            mvx = before.vertices[tke.tail]
            svx = before.vertices[tke.head]
            a1, b1 = mvx.ins
            a2, b2 = svx.outs
            ft = facet_of.pop(mv.thick_edge)
            la1 = facet_of.pop(a1)
            fa = la1 if a1 == a2 else uf.union(la1, facet_of.pop(a2))
            lb1 = facet_of.pop(b1)
            fb = lb1 if b1 == b2 else uf.union(lb1, facet_of.pop(b2))
            facet_of[mv.out_a] = fa
            facet_of[mv.out_b] = fb
            bump(fa, 0 if after.edges[mv.out_a].is_circle else 1)
            bump(fb, 0 if after.edges[mv.out_b].is_circle else 1)
            bump(ft, +1)
            binding_join(
                binding_of_vertex.pop(tke.tail),
                binding_of_vertex.pop(tke.head),
                (fa, fb, ft),
                (tke.tail, tke.head),
            )
            traces.append(MoveTrace("unzip", t, (fa, fb, ft),
                                    (before.edges[a1].thickness, before.edges[b1].thickness)))
        elif isinstance(mv, DigonCup):
            e = before.edges[mv.edge]
            ft = facet_of.pop(mv.edge)
            fa = new_facet(mv.a)
            fb = new_facet(mv.b)
            facet_of[mv.edge_a] = fa
            facet_of[mv.edge_b] = fb
            for out in (mv.out_low, mv.out_high):
                facet_of[out] = ft
            bump(ft, 0 if e.is_circle else 1)
            bump(fa, +1)
            bump(fb, +1)
            bid = new_binding((fa, fb, ft), (mv.split_v, mv.merge_v))
            binding_of_vertex[mv.split_v] = bid
            binding_of_vertex[mv.merge_v] = bid
            traces.append(MoveTrace("digon_cup", t, (fa, fb, ft), (mv.a, mv.b)))
        elif isinstance(mv, DigonCap):
            da = before.edges[mv.edge_a]
            db = before.edges[mv.edge_b]
            svx = before.vertices[da.tail]
            mvx = before.vertices[da.head]
            lo, hi = svx.ins[0], mvx.outs[0]
            fa = facet_of.pop(mv.edge_a)
            fb = facet_of.pop(mv.edge_b)
            if lo == hi:
                ft = facet_of.pop(lo)
            else:
                ft = uf.union(facet_of.pop(lo), facet_of.pop(hi))
            facet_of[mv.out_edge] = ft
            bump(fa, +1)
            bump(fb, +1)
            bump(ft, 0 if after.edges[mv.out_edge].is_circle else 1)
            binding_join(
                binding_of_vertex.pop(da.tail),
                binding_of_vertex.pop(da.head),
                (fa, fb, ft),
                (da.tail, da.head),
            )
            traces.append(MoveTrace("digon_cap", t, (fa, fb, ft),
                                    (da.thickness, db.thickness)))
        elif isinstance(mv, (Assoc, Coassoc)):
            g = before.edges[mv.mid_edge]
            v1 = before.vertices[g.tail]
            v2 = before.vertices[g.head]
            f_old = facet_of.pop(mv.mid_edge)
            f_new = new_facet(after.edges[mv.out_mid].thickness)
            facet_of[mv.out_mid] = f_new
            bump(f_old, +1)
            bump(f_new, +1)
            if isinstance(mv, Assoc):
                x_id, y_id = v1.ins
                slot = v2.ins.index(mv.mid_edge)
                z_id = v2.ins[1 - slot]
                w_id = v2.outs[0]
                av1 = after.vertices[v1.id]
                av2 = after.vertices[v2.id]
                seg_v1 = (facet_of[av1.ins[0]], facet_of[av1.ins[1]], f_new)
                seg_v2 = (facet_of[av2.ins[0]], facet_of[av2.ins[1]], facet_of[w_id])
            else:
                x_id, y_id = v2.outs
                slot = v1.outs.index(mv.mid_edge)
                z_id = v1.outs[1 - slot]
                w_id = v1.ins[0]
                av1 = after.vertices[v1.id]
                av2 = after.vertices[v2.id]
                seg_v1 = (facet_of[av1.outs[0]], facet_of[av1.outs[1]], facet_of[w_id])
                seg_v2 = (facet_of[av2.outs[0]], facet_of[av2.outs[1]], f_new)
            n_sing += 1
            sid = f"s{n_sing:04d}"
            b1 = binding_of_vertex.pop(v1.id)
            b2 = binding_of_vertex.pop(v2.id)
            for b in (b1, b2):
                rec = brecs[buf.find(b)]
                rec.open_ends -= {v1.id, v2.id}
                rec.endpoints.append(sid)
            nb1 = new_binding(seg_v1, (v1.id,))
            brecs[nb1].endpoints.append(sid)
            nb2 = new_binding(seg_v2, (v2.id,))
            brecs[nb2].endpoints.append(sid)
            binding_of_vertex[v1.id] = nb1
            binding_of_vertex[v2.id] = nb2
            thin = sorted(
                (
                    before.edges[x_id].thickness,
                    before.edges[y_id].thickness,
                    before.edges[z_id].thickness,
                )
            )
            sing[sid] = SingularVertex(
                sid,
                (
                    facet_of[x_id], facet_of[y_id], facet_of[z_id],
                    facet_of[w_id] if w_id in facet_of else uf.find(f_old),
                    f_old, f_new,
                ),
                (buf.find(b1), buf.find(b2), nb1, nb2),
                tuple(thin),
            )
            traces.append(MoveTrace("assoc", t))
        else:
            raise PatternMismatch(f"cannot compile move {mv!r}")

        # internal interface contribution
        if t < T - 1:
            for e in after.edges.values():
                if not e.is_circle:
                    bump(facet_of[e.id], -1)
        snapshots.append(dict(facet_of))

    # resolve facets
    root_chi: dict[str, int] = {}
    root_dec: dict[str, list[SymPoly]] = {}
    root_first: dict[str, int] = {}
    for idx, lbl in enumerate(label_order):
        root = uf.find(lbl)
        root_chi[root] = root_chi.get(root, 0) + chi[lbl]
        root_dec.setdefault(root, []).extend(decs[lbl])
        root_first.setdefault(root, idx)
        if thick_of[root] != thick_of[lbl]:
            raise PatternMismatch("internal error: facet thickness clash")
    roots = sorted(root_chi, key=lambda r: root_first[r])
    facet_name = {r: f"f{k + 1}" for k, r in enumerate(roots)}

    def fname(lbl: str) -> str:
        return facet_name[uf.find(lbl)]

    facets = {
        facet_name[r]: Facet(facet_name[r], thick_of[r], root_chi[r], tuple(root_dec[r]))
        for r in roots
    }

    closed = mov.input_web.is_empty() and webs[-1].is_empty()
    bindings: dict[str, Binding] = {}
    bname = {}
    for k, (bid, rec) in enumerate(sorted(brecs.items())):
        name = f"b{k + 1}"
        bname[bid] = name
        bindings[name] = Binding(
            name,
            is_circle=not rec.endpoints and not rec.open_ends,
            segments=tuple((fname(a), fname(b), fname(c)) for a, b, c in rec.segments),
            endpoints=tuple(sorted(rec.endpoints)),
            boundary=bool(rec.open_ends),
        )
    vertices = {
        v.id: SingularVertex(
            v.id,
            tuple(fname(f) for f in v.facets),
            tuple(bname[buf.find(b)] for b in v.bindings),
            v.thin_thicknesses,
        )
        for v in sing.values()
    }
    named_traces = tuple(
        MoveTrace(tr.kind, tr.index, tuple(fname(f) for f in tr.facets), tr.thickness)
        for tr in traces
    )
    edge_facets = tuple(
        {e: fname(lbl) for e, lbl in snap.items()} for snap in snapshots
    )
    return FoamComplex(facets, bindings, vertices, named_traces, closed, edge_facets)


# ---------------------------------------------------------------------------
# Distinct permutations
# ---------------------------------------------------------------------------


def distinct_permutations_reference(exp: tuple[int, ...]) -> Iterable[tuple[int, ...]]:
    """Every distinct rearrangement of ``exp``, each once: each distinct
    value in order of first appearance, then the rearrangements of the
    rest, recursively."""
    if not exp:
        yield ()
        return
    for v in dict.fromkeys(exp):
        i = exp.index(v)
        for rest in distinct_permutations_reference(exp[:i] + exp[i + 1:]):
            yield (v, *rest)


# ---------------------------------------------------------------------------
# Exponent rewrites
# ---------------------------------------------------------------------------


def extend_reference(p: MultiPoly, variables) -> MultiPoly:
    """``p`` inside a larger alphabet: each exponent scattered by a loop."""
    variables = tuple(variables)
    idx = [variables.index(v) for v in p.vars]
    out = {}
    for e, c in p.terms.items():
        ne = [0] * len(variables)
        for pos, k in zip(idx, e):
            ne[pos] = k
        out[tuple(ne)] = c
    return MultiPoly._from_raw(p.ring, variables, out)


def permute_vars_reference(p: MultiPoly, perm) -> MultiPoly:
    """``p`` with variable ``v`` moved to ``perm.get(v, v)``.  Written for
    a bijection: on any other map two variables write one slot, the last
    wins, and terms that then coincide are added."""
    pos = {v: i for i, v in enumerate(p.vars)}
    out = {}
    for e, c in p.terms.items():
        ne = [0] * len(p.vars)
        for v, k in zip(p.vars, e):
            ne[pos[perm.get(v, v)]] = k
        key = tuple(ne)
        out[key] = out.get(key, 0) + c
    return MultiPoly._from_raw(p.ring, p.vars, out)


def relabel_reference(r: RatFun, perm) -> RatFun:
    """``r`` with variable ``i`` renamed to ``perm[i]``; a flipped
    denominator factor negates the numerator once per unit of exponent."""
    num = r.num
    terms = {}
    for e, c in num.terms.items():
        ne = [0] * len(e)
        for i, k in zip(perm, e):
            ne[i] = k
        terms[tuple(ne)] = c
    den = {}
    flips = 0
    for (i, j), m in r.den.items():
        a, b = perm[i], perm[j]
        if a > b:
            a, b = b, a
            flips += m
        den[(a, b)] = m
    if flips % 2:
        terms = {e: -c for e, c in terms.items()}
    return RatFun(MultiPoly._from_raw(num.ring, num.vars, terms), den)


def at_coloring_reference(p: MultiPoly, color, N: int) -> MultiPoly:
    """A canonical facet polynomial renamed onto the color's pigments and
    then those outside it, each in increasing order, then extended to
    ``X1..XN``."""
    inner = sorted(color)
    outer = [i for i in range(1, N + 1) if i not in color]
    names = tuple(f"X{i}" for i in inner + outer)
    if len(names) != len(p.vars):
        raise ValueError("rename must preserve arity")
    return extend_reference(MultiPoly._from_raw(p.ring, names, p.terms), xvars(N))


def witt_act_reference(n: int, q: MultiPoly) -> MultiPoly:
    """``L_n q`` as ``-sum_i z_i^{n+1} dq/dz_i``, one derivative and one
    product per variable."""
    if n < -1:
        raise ValueError("index must be at least -1")
    out = MultiPoly.zero(q.ring, q.vars)
    for i, v in enumerate(q.vars):
        d = q.derivative(v)
        if d.is_zero():
            continue
        exp = tuple(n + 1 if k == i else 0 for k in range(len(q.vars)))
        out = out - MultiPoly(q.ring, q.vars, {exp: 1}) * d
    return out


def witt_act_ratfun_reference(n: int, r: RatFun) -> RatFun:
    """``L_n`` on ``num / prod (X_i - X_j)^q``: ``L_n num`` plus ``num``
    times ``q h_n(X_i, X_j)`` per factor, each ``h_n`` summed from its
    ``n + 1`` monomials."""
    ring, vs = r.num.ring, r.num.vars
    num = witt_act_reference(n, r.num)
    if r.den and n >= 0:
        corr = MultiPoly.zero(ring, vs)
        for (i, j), q in r.den.items():
            h = MultiPoly.zero(ring, vs)
            for u in range(n + 1):
                exp = [0] * len(vs)
                exp[i], exp[j] = u, n - u
                h = h + MultiPoly(ring, vs, {tuple(exp): 1})
            corr = corr + h * q
        num = num + r.num * corr
    return RatFun(num, r.den)

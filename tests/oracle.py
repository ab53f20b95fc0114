"""Independent references for the test suite.

The brute-force oracle for closed-foam values is a from-scratch
transcription of the colored evaluation formula for the simplest hand-built
complexes (a 1-sphere with dots), using its own dense polynomial arithmetic
over ``fractions.Fraction``.  It shares no code with the package and exists
so that worked values in the test suite are pinned by two fully independent
computations.

The reference operator applicator at the end works through polynomials:
it expands every dot shape to a ``MultiPoly``, differentiates it with
``witt_act``, multiplies the move images' power sums in, and decomposes the
results back into dot shapes.  The package applies the same operators with
closed rules on the shapes; the tests require identical terms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from foamlab import actions
from foamlab.foameval import _facet_vars, _orbit_poly
from foamlab.polyring import MultiPoly, power_sum, witt_act

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
# Reference operator applicator
# ---------------------------------------------------------------------------


def leibniz_reference(S, dec_fn, local_fn):
    """Apply an operator to the formal sum ``S`` through polynomials.

    ``dec_fn`` maps a decoration polynomial to its image; ``local_fn`` gives
    each move's image as ``actions`` builds it, (scalar, dots) summands with
    a dot ``(f, k, hat)`` standing for ``p_k`` of a block of facet ``f``.
    """
    skel = S.skeleton
    ring, N = skel.params.ring, skel.params.N

    def dot_poly(f: str, k: int, hat: bool) -> MultiPoly:
        a = skel.thickness[f]
        vs = _facet_vars(a, N - a)
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


_SL2_POLY = {
    "e": lambda p: witt_act(-1, p),
    "h": lambda p: witt_act(0, p) * 2,
    "f": lambda p: -witt_act(1, p),
}


def witt_reference(n, params, S):
    """The reference image of ``S`` under the half-Witt operator ``L_n``."""
    local = actions._witt_local(S.skeleton, params, n)
    return leibniz_reference(S, lambda p: witt_act(n, p), local)


def sl2_reference(gen, params, S):
    """The reference image of ``S`` under the sl2 generator ``gen``."""
    local = actions._sl2_local(S.skeleton, params, gen)
    return leibniz_reference(S, _SL2_POLY[gen], local)

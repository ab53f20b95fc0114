"""Tests for the exact polynomial / rational-function core."""

import functools
import itertools
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracle
from foamlab import foameval, polyring
from foamlab.errors import (
    DivisionNotExact,
    FoamlabError,
    IndexOutOfRange,
    InputError,
    NotInSymmetricSubring,
    WrongRing,
)
from foamlab.polyring import (
    GF,
    QQ,
    ZZ,
    FlatSequence,
    MultiPoly,
    RatFun,
    SymPoly,
    WittSequence,
    base_change,
    complete_homogeneous,
    elementary,
    facet_vars,
    flatness_check,
    from_elementary,
    is_flat,
    is_symmetric,
    kill_equivariance,
    p_derivation,
    poly_arith,
    power_sum,
    qbinom_laurent,
    ratfun_sum,
    symmetric_basis,
    to_elementary,
    to_prime_field,
    twisted_p_derivation,
    twisted_witt_act,
    witt_act,
    witt_sequence_check,
    xvars,
)

V2 = ("x", "y")
V3 = ("x", "y", "z")
X3 = xvars(3)
PAIRS = ((0, 1), (0, 2), (1, 2))
RINGS = st.sampled_from([ZZ, QQ, GF(5)])
ALL_RINGS = st.sampled_from([ZZ, QQ, GF(2), GF(5)])


def P(vars=V2, ring=ZZ, **monos):
    """Helper: P(x=1, x2y=3) etc. not used; build via var arithmetic."""
    return MultiPoly.zero(ring, vars)


def var(name, vars=V2, ring=ZZ):
    return MultiPoly.var(ring, vars, name)


# ---------------------------------------------------------------------------
# random polynomial strategy
# ---------------------------------------------------------------------------

def polys(vars=V2, ring=ZZ, max_deg=4, max_terms=5, coeff_range=6):
    n = len(vars)
    exps = st.tuples(*[st.integers(0, max_deg // 2 + 1) for _ in range(n)]).filter(
        lambda e: sum(e) <= max_deg
    )
    if ring == QQ:
        coeffs = st.fractions(-coeff_range, coeff_range, max_denominator=4)
    else:
        coeffs = st.integers(-coeff_range, coeff_range)
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda d: MultiPoly(ring, vars, d)
    )


@st.composite
def cancelling_pairs(draw, ring, vars=V2):
    """(a, b) where b carries the negatives of some of a's coefficients.

    Over F_p a negative is stored as ``p - c``, so the raw sum at those
    exponents is ``p`` and cancels only after reduction.
    """
    a = draw(polys(vars, ring, max_deg=3, max_terms=5))
    b = draw(polys(vars, ring, max_deg=3, max_terms=5))
    cancel = draw(st.sets(st.sampled_from(sorted(a.terms)))) if a.terms else set()
    terms = dict(b.terms)
    terms.update({e: -a.terms[e] for e in cancel})
    return a, MultiPoly(ring, vars, terms)


def one_terms(ring, vars=V2):
    """Zero, the constant 1, other constants and monomials."""
    coeffs = (
        st.fractions(-6, 6, max_denominator=4) if ring == QQ else st.integers(-6, 6)
    )
    exps = st.tuples(*[st.integers(0, 2) for _ in vars])
    return st.one_of(
        st.just(MultiPoly.zero(ring, vars)),
        st.just(MultiPoly.const(ring, vars, 1)),
        coeffs.map(lambda c: MultiPoly.const(ring, vars, c)),
        st.tuples(exps, coeffs).map(lambda ec: MultiPoly(ring, vars, {ec[0]: ec[1]})),
    )


def division_outcome(divide, a, b):
    """The typed terms of ``a / b``, or the type and text of the error."""
    try:
        return typed(divide(a, b))
    except DivisionNotExact as exc:
        return type(exc), str(exc)


def typed(terms):
    """A terms dict with each coefficient paired with its type."""
    return {e: (type(c), c) for e, c in terms.items()}


def assert_canonical(poly):
    """No zero is stored and each coefficient is its own normal form."""
    for c in poly.terms.values():
        assert c != 0, poly.terms
        n = poly.ring.normalize(c)
        assert (type(n), n) == (type(c), c), (poly.ring, c)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def normalize_reference(ring, c):
    """``CoefRing.normalize`` without the exact-int test in front."""
    if ring.kind == "Fp":
        if isinstance(c, Fraction):
            if c.denominator % ring.p == 0:
                raise WrongRing(f"denominator {c.denominator} not invertible mod {ring.p}")
            return (c.numerator * pow(c.denominator, -1, ring.p)) % ring.p
        return c % ring.p
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        if ring.kind == "Z":
            raise WrongRing(f"{c} is not an integer")
    return c


class TestCoefRing:
    @pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)])
    def test_normalize_results_and_types(self, ring):
        values = [0, 1, -7, 12, 10**30 + 3, True, False,
                  Fraction(3), Fraction(-10, 2), Fraction(1, 3), Fraction(-7, 5)]
        for c in values:
            try:
                want = normalize_reference(ring, c)
            except WrongRing:
                with pytest.raises(WrongRing):
                    ring.normalize(c)
                continue
            got = ring.normalize(c)
            assert (type(got), got) == (type(want), want), (ring, c)

    def test_fp_divide_reduces_operands(self):
        F5 = GF(5)
        got = F5.divide(Fraction(1, 3), 1)
        assert (type(got), got) == (int, 2)
        assert F5.divide(7, 3) == 4
        assert F5.divide(Fraction(3, 2), 8) == 3  # 4 / 3 = 4 * 2 = 3

    @pytest.mark.parametrize("b", [0, 5, -10, Fraction(5, 3)])
    def test_fp_divide_by_zero_class(self, b):
        with pytest.raises(ZeroDivisionError):
            GF(5).divide(3, b)


class TestConstructor:
    @pytest.mark.parametrize("exp", [(1,), (1, 0, 0), (1, -1), (-2, 0)])
    def test_bad_exponent_rejected(self, exp):
        with pytest.raises(ValueError):
            MultiPoly(ZZ, V2, {exp: 1})

    def test_fp_coefficients_reduced_and_zeros_dropped(self):
        p = MultiPoly(GF(5), V2, {(1, 0): 7, (0, 1): 5, (0, 0): -1, (2, 0): Fraction(1, 3)})
        assert typed(p.terms) == {(1, 0): (int, 2), (0, 0): (int, 4), (2, 0): (int, 2)}

    def test_qq_integral_fractions_become_ints(self):
        p = MultiPoly(QQ, V2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(0, 3),
                               (0, 0): Fraction(1, 3)})
        assert typed(p.terms) == {(1, 0): (int, 2), (0, 0): (Fraction, Fraction(1, 3))}

    def test_zz_coefficients(self):
        assert MultiPoly(ZZ, V2, {(1, 0): 0, (0, 1): Fraction(6, 3)}).terms == {(0, 1): 2}
        assert type(MultiPoly(ZZ, V2, {(0, 1): Fraction(6, 3)}).terms[(0, 1)]) is int
        with pytest.raises(WrongRing):
            MultiPoly(ZZ, V2, {(1, 0): Fraction(1, 2)})


class TestArith:
    def test_mul_difference_of_squares(self):
        x, y = var("x"), var("y")
        assert poly_arith("mul", x - y, x + y) == x**2 - y**2

    def test_exact_div_difference_of_squares(self):
        X = xvars(2)
        x1 = MultiPoly.var(ZZ, X, "X1")
        x2 = MultiPoly.var(ZZ, X, "X2")
        assert poly_arith("exact_div", x1**2 - x2**2, x1 - x2) == x1 + x2

    def test_exact_div_failure(self):
        X = xvars(2)
        x1 = MultiPoly.var(ZZ, X, "X1")
        x2 = MultiPoly.var(ZZ, X, "X2")
        with pytest.raises(DivisionNotExact):
            poly_arith("exact_div", x1**2 + x2, x1 - x2)

    @given(ALL_RINGS.flatmap(lambda ring: st.tuples(*[polys(V2, ring)] * 3)))
    @settings(max_examples=120, deadline=None)
    def test_ring_axioms(self, abc):
        a, b, c = abc
        results = [(a + b) * c, a * c + b * c, a * b, b * a, a - a, -a, a * 3, a + 2]
        assert results[0] == results[1]
        assert results[2] == results[3]
        assert results[4] == MultiPoly.zero(a.ring, V2)
        for r in [a + b, a * c, b * c] + results:
            assert_canonical(r)

    @given(ALL_RINGS.flatmap(cancelling_pairs))
    @settings(max_examples=200, deadline=None)
    def test_kernel_matches_per_term_reference(self, ab):
        a, b = ab
        assert typed((a + b).terms) == typed(oracle.term_add(a, b))
        assert typed((b + a).terms) == typed(oracle.term_add(b, a))
        # a - (-b) cancels where a + b does
        for x, y in ((a, b), (b, a), (a, -b)):
            assert typed((x - y).terms) == typed(oracle.term_sub(x, y))
        assert typed((a * b).terms) == typed(oracle.term_mul(a, b))
        s = a + b
        assert typed((s * s).terms) == typed(oracle.term_mul(s, s))
        if not b.is_zero():
            prod = a * b
            assert typed(prod.exact_div(b).terms) == typed(oracle.term_exact_div(prod, b))
            near = prod + a
            try:
                want = typed(oracle.term_exact_div(near, b))
            except DivisionNotExact:
                with pytest.raises(DivisionNotExact):
                    near.exact_div(b)
            else:
                assert typed(near.exact_div(b).terms) == want

    def test_exact_div_over_Q_matches_per_term_reference(self):
        X = xvars(2)
        x1, x2 = (MultiPoly.var(QQ, X, v) for v in X)
        b = x1 * Fraction(3, 2) - x2 * Fraction(2, 7)
        q = x1 * x1 * Fraction(2, 3) + x2 * 5 - Fraction(1, 3)
        prod = q * b
        got = prod.exact_div(b)
        assert got == q
        assert typed(got.terms) == typed(oracle.term_exact_div(prod, b))
        for rem in (prod + Fraction(1, 2), prod + x2 * x2):
            with pytest.raises(DivisionNotExact):
                oracle.term_exact_div(rem, b)
            with pytest.raises(DivisionNotExact):
                rem.exact_div(b)

    @given(
        RINGS.flatmap(
            lambda ring: st.tuples(polys(V2, ring, max_deg=3, max_terms=5), one_terms(ring))
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_one_term_operands_match_per_term_reference(self, at):
        # products and quotients with a one-term factor go term by term
        a, t = at
        for x, y in ((a, t), (t, a), (t, t)):
            assert typed((x * y).terms) == typed(oracle.term_mul(x, y))
        if t.is_zero():
            return
        for num in (a, a * t, a * t + a):
            got = division_outcome(lambda x, y: x.exact_div(y).terms, num, t)
            assert got == division_outcome(oracle.term_exact_div, num, t)

    @pytest.mark.parametrize(
        "num,message",
        [
            ({(1, 0): 3}, "3 / 2 is not an integer"),
            ({(1, 0): 4, (0, 1): 2}, "leading monomial not divisible"),
            ({(2, 0): 3, (0, 1): 2}, "3 / 2 is not an integer"),
            ({(0, 2): 2, (1, 0): 3}, "leading monomial not divisible"),
        ],
    )
    def test_one_term_division_reports_the_largest_failing_term(self, num, message):
        # over Z by 2x: a non-integral quotient, a non-divisible exponent,
        # and both, with either one at the grlex-largest term
        a, t = MultiPoly(ZZ, V2, num), MultiPoly(ZZ, V2, {(1, 0): 2})
        with pytest.raises(DivisionNotExact) as got:
            a.exact_div(t)
        with pytest.raises(DivisionNotExact) as want:
            oracle.term_exact_div(a, t)
        assert str(got.value) == str(want.value) == message

    def test_exact_div_over_Z_needs_integral_quotient(self):
        X = xvars(2)
        x1 = MultiPoly.var(ZZ, X, "X1")
        with pytest.raises(DivisionNotExact):
            (x1 * 2).exact_div(x1 * 4)

    @given(
        RINGS.flatmap(
            lambda ring: st.tuples(
                polys(X3, ring, max_deg=4, max_terms=6), polys(X3, ring, max_deg=3, max_terms=4)
            )
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_division_roundtrip(self, ab):
        a, b = ab
        assume(not b.is_zero())
        assert (a * b).exact_div(b) == a

    @given(
        RINGS.flatmap(
            lambda ring: st.tuples(
                polys(X3, ring, max_deg=3, max_terms=4),
                polys(X3, ring, max_deg=3, max_terms=4),
                st.integers(1, 4),
            )
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_division_remainder_raises(self, abc):
        # A nonconstant b cannot divide a*b + c for a constant c, nonzero in
        # every ring drawn.
        a, b, c = abc
        assume(not b.is_constant())
        with pytest.raises(DivisionNotExact):
            (a * b + c).exact_div(b)

    def test_canonical_str_order(self):
        x, y = var("x"), var("y")
        s = str(x * y + x**2 + y + 1)
        assert s == "x^2 + x*y + y + 1"

    def test_fp_arithmetic(self):
        F3 = GF(3)
        x = MultiPoly.var(F3, ("x",), "x")
        assert (x + 1) ** 3 == x**3 + 1

    def test_mixed_ring_rejected(self):
        with pytest.raises(WrongRing):
            MultiPoly.var(ZZ, V2, "x") + MultiPoly.var(QQ, V2, "x")

    @given(ALL_RINGS.flatmap(lambda ring: st.tuples(
        st.just(ring), st.lists(st.tuples(polys(V2, ring), polys(V2, ring)), max_size=4)
    )))
    @settings(max_examples=80, deadline=None)
    def test_sum_of_products_is_the_naive_sum(self, case):
        ring, pairs = case
        got = polyring._sum_of_products(ring, V2, pairs)
        want = MultiPoly.zero(ring, V2)
        for a, b in pairs:
            want = want + a * b
        assert typed(got.terms) == typed(want.terms)
        assert_canonical(got)

    def test_sum_of_products_rejects_mixed_factors(self):
        x = MultiPoly.var(ZZ, V2, "x")
        with pytest.raises(WrongRing):
            polyring._sum_of_products(ZZ, V2, [(x, MultiPoly.var(QQ, V2, "x"))])
        with pytest.raises(ValueError, match="alphabets"):
            polyring._sum_of_products(ZZ, V2, [(x, MultiPoly.var(ZZ, V3, "x"))])
        with pytest.raises(ValueError, match="alphabets"):
            polyring._sum_of_products(ZZ, V3, [(x, x)])


# ---------------------------------------------------------------------------
# symmetric bases
# ---------------------------------------------------------------------------

class TestSymmetric:
    def test_power_sum_2(self):
        x, y = var("x"), var("y")
        assert symmetric_basis("power_sum", 2, ZZ, V2).poly == x**2 + y**2

    def test_complete_2(self):
        x, y = var("x"), var("y")
        assert symmetric_basis("complete", 2, ZZ, V2).poly == x**2 + x * y + y**2

    def test_power_sum_0_is_count(self):
        a = 5
        vars5 = tuple(f"x{i}" for i in range(a))
        assert power_sum(ZZ, vars5, 0) == MultiPoly.const(ZZ, vars5, a)

    def test_newton_identity(self):
        # p2 = e1^2 - 2 e2 in any alphabet
        e1 = elementary(ZZ, V3, 1)
        e2 = elementary(ZZ, V3, 2)
        assert power_sum(ZZ, V3, 2) == e1**2 - 2 * e2

    def test_elementary_degree_grading(self):
        for i in range(1, 4):
            assert elementary(ZZ, V3, i).qdegree() == 2 * i
            assert power_sum(ZZ, V3, i).qdegree() == 2 * i
            assert complete_homogeneous(ZZ, V3, i).qdegree() == 2 * i

    def test_sympoly_certifies(self):
        with pytest.raises(NotInSymmetricSubring):
            SymPoly(var("x"), (2,))
        SymPoly(var("x") + var("y"), (2,))
        # block-symmetric: symmetric in {x,y} only
        p3 = MultiPoly.var(ZZ, V3, "x") + MultiPoly.var(ZZ, V3, "y")
        SymPoly(p3, (2, 1))

    def test_to_elementary_roundtrip(self):
        p = power_sum(ZZ, V3, 3)
        e = to_elementary(p)
        assert from_elementary(e, V3) == p

    def test_to_elementary_rejects_asymmetric(self):
        with pytest.raises(NotInSymmetricSubring):
            to_elementary(var("x"))

    @given(st.data(), st.integers(1, 4), RINGS)
    @settings(max_examples=60, deadline=None)
    def test_elementary_roundtrip(self, data, k, ring):
        # q is a random polynomial in e_1..e_k; p is q expanded by plain
        # substitution, an expansion that shares no code with the converter
        q = data.draw(polys(tuple(f"E{i}" for i in range(1, k + 1)), ring, max_deg=3))
        V = xvars(k)
        p = q.subs({f"E{i}": elementary(ring, V, i) for i in range(1, k + 1)})
        assert to_elementary(p) == q
        assert from_elementary(to_elementary(p), V) == p

    @pytest.mark.parametrize(
        "case",
        ["permuted term missing", "sorted term missing", "coefficient differs", "block only"],
    )
    def test_to_elementary_rejects_broken_symmetry(self, case):
        p = power_sum(ZZ, V3, 2) * elementary(ZZ, V3, 1) + elementary(ZZ, V3, 3)
        terms = dict(p.terms)
        if case == "permuted term missing":
            del terms[(1, 2, 0)]
        elif case == "sorted term missing":
            del terms[(2, 1, 0)]
        elif case == "coefficient differs":
            terms[(0, 1, 2)] += 1
        else:
            # symmetric in {x, y} but not under x <-> z
            terms = {(1, 0, 0): 1, (0, 1, 0): 1, (1, 1, 0): 3}
        broken = MultiPoly(ZZ, V3, terms)
        assert not is_symmetric(broken)
        with pytest.raises(NotInSymmetricSubring):
            to_elementary(broken)
        if case == "block only":
            assert is_symmetric(broken, (2, 1))

    @given(polys(X3, ZZ, max_deg=3), st.sampled_from([(3,), (2, 1), (1, 2), (1, 1, 1)]))
    @settings(max_examples=80, deadline=None)
    def test_is_symmetric_is_transposition_invariance(self, p, blocks):
        def invariant(q):
            start = 0
            for b in blocks:
                for i in range(start, start + b - 1):
                    u, v = q.vars[i], q.vars[i + 1]
                    if q.permute_vars({u: v, v: u}) != q:
                        return False
                start += b
            return True

        assert is_symmetric(p, blocks) == invariant(p)
        ranges, start = [], 0
        for b in blocks:
            ranges.append(range(start, start + b))
            start += b
        orbit = MultiPoly.zero(ZZ, X3)
        for images in itertools.product(*(itertools.permutations(r) for r in ranges)):
            perm = [i for image in images for i in image]
            orbit = orbit + p.permute_vars({X3[i]: X3[j] for i, j in enumerate(perm)})
        # the sum over the permutations inside the blocks is invariant
        assert is_symmetric(orbit, blocks)

    @given(
        st.integers(1, 8).flatmap(
            lambda N: st.tuples(
                st.just(N),
                st.dictionaries(
                    st.lists(st.integers(0, 3), min_size=N, max_size=N).map(
                        lambda parts: tuple(sorted(parts, reverse=True))
                    ),
                    st.integers(-3, 3),
                    max_size=5,
                ),
                st.integers(1, N),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_pieri_matches_the_subset_loop(self, case):
        N, f, r = case
        got = polyring.ElementaryBasis(xvars(N))._pieri(f, r)
        assert got == oracle.pieri_reference(f, r, N)

    @given(st.lists(st.integers(0, 4), max_size=9))
    @settings(max_examples=200, deadline=None)
    def test_distinct_permutations_match_the_recursion(self, parts):
        # the package passes partitions: the same sequence, in
        # lexicographically decreasing order; any order gives the same set
        lam = tuple(sorted(parts, reverse=True))
        got = list(polyring._distinct_permutations(lam))
        assert got == list(oracle.distinct_permutations_reference(lam))
        assert got == sorted(set(got), reverse=True)
        assert list(polyring._distinct_permutations(tuple(parts))) == got

    def test_elementary_basis_builds_nothing_up_front(self):
        # 2^40 subsets of the pigments are never listed
        X = xvars(40)
        basis = polyring.ElementaryBasis(X)
        e1 = elementary(ZZ, X, 1)
        assert basis.to_e(e1) == MultiPoly.var(ZZ, basis.e_names, "E1")
        assert basis.from_e(MultiPoly.var(ZZ, basis.e_names, "E1")) == e1

    @pytest.mark.parametrize("p", [0, 1, 4, 9, -3])
    def test_bad_modulus_is_an_input_error(self, p):
        with pytest.raises(InputError):
            GF(p)


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

class TestDerivations:
    def test_witt_on_difference(self):
        # L_n(x - y) = -(x - y) h_n(x, y)
        x, y = var("x"), var("y")
        for n in range(-1, 4):
            hn = complete_homogeneous(ZZ, V2, n) if n >= 0 else MultiPoly.zero(ZZ, V2)
            assert witt_act(n, x - y) == -(x - y) * hn

    def test_witt_minus1_is_minus_sum_of_derivatives(self):
        x, y = var("x"), var("y")
        assert witt_act(-1, x**2 + y**2) == -2 * (x + y)

    def test_witt_on_vandermonde_powers(self):
        # L_n(D^a) = -a * (sum_{k+l=n} p_k(x-block) p_l(y-block)) * D^a
        # for D the product of differences across two blocks.
        vars4 = ("x1", "x2", "y1", "y2")
        xs = [MultiPoly.var(ZZ, vars4, v) for v in ("x1", "x2")]
        ys = [MultiPoly.var(ZZ, vars4, v) for v in ("y1", "y2")]
        D = MultiPoly.const(ZZ, vars4, 1)
        for xi in xs:
            for yj in ys:
                D = D * (xi - yj)
        for alpha in (1, 2):
            for n in range(-1, 3):
                conv = MultiPoly.zero(ZZ, vars4)
                for k in range(0, n + 1):
                    pk = power_sum(ZZ, ("x1", "x2"), k).extend(vars4)
                    pl = power_sum(ZZ, ("y1", "y2"), n - k).extend(vars4)
                    conv = conv + pk * pl
                assert witt_act(n, D**alpha) == -alpha * conv * D**alpha

    @given(polys(max_deg=6), polys(max_deg=6), st.integers(-1, 3), st.integers(-1, 3))
    @settings(max_examples=40, deadline=None)
    def test_witt_bracket(self, a, b, n, m):
        lhs = witt_act(n, witt_act(m, a)) - witt_act(m, witt_act(n, a))
        if n == m:
            assert lhs.is_zero()
        else:
            assert lhs == (n - m) * witt_act(n + m, a)

    @given(polys(max_deg=5), polys(max_deg=5), st.integers(-1, 3))
    @settings(max_examples=40, deadline=None)
    def test_witt_leibniz(self, a, b, n):
        assert witt_act(n, a * b) == witt_act(n, a) * b + a * witt_act(n, b)

    @given(polys(max_deg=5))
    @settings(max_examples=40, deadline=None)
    def test_witt_zero_is_minus_degree(self, q):
        for d in {sum(e) for e in q.terms}:
            part = MultiPoly(q.ring, q.vars, {e: c for e, c in q.terms.items() if sum(e) == d})
            assert witt_act(0, part) == -d * part

    @given(polys(max_deg=5), polys(max_deg=5))
    @settings(max_examples=30, deadline=None)
    def test_sl2_triple_from_witt(self, a, b):
        E = lambda q: witt_act(-1, q)
        H = lambda q: 2 * witt_act(0, q)
        F = lambda q: -witt_act(1, q)
        assert E(F(a)) - F(E(a)) == H(a)
        assert H(E(a)) - E(H(a)) == 2 * E(a)
        assert H(F(a)) - F(H(a)) == -2 * F(a)

    def test_p_derivation_basics(self):
        F3 = GF(3)
        x = MultiPoly.var(F3, ("x",), "x")
        assert p_derivation(x) == x**2
        assert p_derivation(x, 2) == 2 * x**3
        assert p_derivation(x, 3) == MultiPoly.zero(F3, ("x",))

    @given(polys(vars=("x", "y"), ring=GF(3), max_deg=5, coeff_range=2))
    @settings(max_examples=30, deadline=None)
    def test_p_derivation_pth_power_vanishes(self, q):
        assert p_derivation(q, 3).is_zero()

    @given(polys(vars=("x", "y"), ring=GF(5), max_deg=4, coeff_range=4))
    @settings(max_examples=20, deadline=None)
    def test_p_derivation_pth_power_vanishes_5(self, q):
        assert p_derivation(q, 5).is_zero()

    @given(
        polys(vars=("x", "y"), ring=GF(3), max_deg=4, coeff_range=2),
        st.integers(-2, 2),
        st.integers(-2, 2),
    )
    @settings(max_examples=30, deadline=None)
    def test_twisted_p_derivation_nilpotent(self, q, c1, c2):
        # degree-2 twist t: the twisted derivation still satisfies d^p = 0
        F3 = GF(3)
        x = MultiPoly.var(F3, ("x", "y"), "x")
        y = MultiPoly.var(F3, ("x", "y"), "y")
        t = c1 * x + c2 * y
        assert twisted_p_derivation(q, t, 3).is_zero()

    @given(polys(ring=GF(3), max_deg=4, coeff_range=2), polys(ring=GF(3), max_deg=4, coeff_range=2))
    @settings(max_examples=30, deadline=None)
    def test_p_derivation_leibniz(self, a, b):
        assert p_derivation(a * b) == p_derivation(a) * b + a * p_derivation(b)

    def test_p_derivation_requires_prime_field(self):
        with pytest.raises(WrongRing):
            p_derivation(var("x"))


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------

class TestSequences:
    def test_linear_sequence_passes(self):
        ok, w = witt_sequence_check(WittSequence.linear(QQ, Fraction(3, 2)))
        assert ok, w

    def test_zero_sequence_passes(self):
        ok, _ = witt_sequence_check(WittSequence.zero(ZZ))
        assert ok

    def test_spike_sequence_fails(self):
        seq = WittSequence.from_table(ZZ, [0, 0, 0, 1, 0, 0, 0, 0, 0, 0])
        ok, witness = witt_sequence_check(seq)
        assert not ok
        assert witness == (2, 1)

    def test_out_of_range(self):
        seq = WittSequence.from_table(ZZ, [0, 1, 2])
        with pytest.raises(IndexOutOfRange):
            seq(5)

    @given(
        st.sampled_from([ZZ, QQ, GF(2), GF(5)]),
        st.one_of(
            st.tuples(st.just("linear"), st.integers(-3, 3), st.integers(-3, 9)),
            st.tuples(st.just("table"), st.lists(st.integers(-1, 1), max_size=5)),
        ),
    )
    def test_identically_zero_matches_the_definition(self, ring, spec):
        if spec[0] == "linear":
            seq = WittSequence.linear(ring, spec[1], spec[2])
        else:
            seq = WittSequence.from_table(ring, spec[1])
        want = all(seq(n) == 0 for n in range(-1, seq.n_max + 1))
        assert seq.is_identically_zero() == want

    @pytest.mark.parametrize(
        "seq,zero",
        [
            (WittSequence.linear(QQ, 3, n_max=-1), True),
            (WittSequence.linear(GF(5), 5, n_max=4), True),
            (WittSequence.linear(GF(5), 2, n_max=0), False),
            (WittSequence.from_table(ZZ, []), True),
            (WittSequence.from_table(GF(3), [0, 3, 6]), True),
            (WittSequence.from_table(ZZ, [0, 0, 1]), False),
        ],
    )
    def test_identically_zero_edge_cases(self, seq, zero):
        assert seq.is_identically_zero() is zero

    def test_flat_examples(self):
        # tau_n = (n+1) x^n is flat; tau_n = h_n(x, y) is flat.
        nmax = 4
        xpows = FlatSequence(
            tuple(
                (n + 1) * MultiPoly(ZZ, V2, {(max(n, 0), 0): 1})
                if n >= 0
                else MultiPoly.zero(ZZ, V2)
                for n in range(-1, nmax + 1)
            )
        )
        assert is_flat(xpows)
        hs = FlatSequence(
            tuple(
                complete_homogeneous(ZZ, V2, n) if n >= 0 else MultiPoly.zero(ZZ, V2)
                for n in range(-1, nmax + 1)
            )
        )
        assert is_flat(hs)
        # sums of flat sequences are flat (curvature is additive)
        total = FlatSequence(tuple(a + b for a, b in zip(xpows.values, hs.values)))
        assert is_flat(total)

    def test_nonflat_detected(self):
        x = var("x")
        bad = FlatSequence((MultiPoly.zero(ZZ, V2), x, x, x, x))
        assert not is_flat(bad)
        report = flatness_check(bad)
        assert any(not d.is_zero() for d in report.values())

    def test_twisted_witt_bracket_for_flat_twist(self):
        hs = FlatSequence(
            tuple(
                complete_homogeneous(ZZ, V2, n) if n >= 0 else MultiPoly.zero(ZZ, V2)
                for n in range(-1, 5)
            )
        )
        q = var("x") ** 2 - 3 * var("y")
        for n in range(-1, 3):
            for m in range(-1, 2):
                lhs = twisted_witt_act(n, hs, twisted_witt_act(m, hs, q)) - twisted_witt_act(
                    m, hs, twisted_witt_act(n, hs, q)
                )
                if n == m:
                    assert lhs.is_zero()
                else:
                    assert lhs == (n - m) * twisted_witt_act(n + m, hs, q)


# ---------------------------------------------------------------------------
# base change
# ---------------------------------------------------------------------------

class TestBaseChange:
    def test_to_prime_field_scalar(self):
        assert base_change(MultiPoly.const(ZZ, V2, 7), "to_prime_field", 5) == 2

    def test_kill_equivariance_on_e1(self):
        X = xvars(3)
        e1 = elementary(ZZ, X, 1)
        assert kill_equivariance(e1) == 0

    def test_kill_equivariance_unital(self):
        X = xvars(3)
        assert kill_equivariance(MultiPoly.const(ZZ, X, 1)) == 1

    def test_kill_equivariance_rejects_asymmetric(self):
        X = xvars(2)
        with pytest.raises(NotInSymmetricSubring):
            kill_equivariance(MultiPoly.var(ZZ, X, "X1"))

    def test_grading_preserved(self):
        X = xvars(2)
        q = elementary(ZZ, X, 2) * 3
        assert to_prime_field(q, 7).qdegree() == q.qdegree()


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class TestRatFun:
    def setup_method(self):
        self.X = xvars(2)
        self.x1 = MultiPoly.var(ZZ, self.X, "X1")
        self.x2 = MultiPoly.var(ZZ, self.X, "X2")

    def test_cancellation_to_zero(self):
        a = RatFun(MultiPoly.const(ZZ, self.X, -1), {(0, 1): 1})
        b = RatFun(MultiPoly.const(ZZ, self.X, 1), {(0, 1): 1})
        assert ratfun_sum([a, b]).num.is_zero()

    def test_cancellation_to_one(self):
        r = RatFun(self.x1 - self.x2, {(0, 1): 1}).normalize()
        assert not r.den
        assert r.num == MultiPoly.const(ZZ, self.X, 1)

    def test_dotted_sphere_shape(self):
        a = RatFun(-self.x1, {(0, 1): 1})
        b = RatFun(self.x2, {(0, 1): 1})
        total = ratfun_sum([a, b])
        assert not total.normalize().den
        assert total.as_polynomial() == MultiPoly.const(ZZ, self.X, -1)

    def test_mul(self):
        r = RatFun(self.x1, {(0, 1): 1}) * RatFun(self.x1 - self.x2, {})
        assert r.normalize().den == {}
        assert r.normalize().num == self.x1

    @given(polys(vars=xvars(3), max_deg=3), polys(vars=xvars(3), max_deg=3))
    @settings(max_examples=30, deadline=None)
    def test_add_then_subtract(self, a, b):
        ra = RatFun(a, {(0, 1): 1, (1, 2): 2})
        rb = RatFun(b, {(0, 2): 1})
        assert (ra + rb) - rb == ra



# ---------------------------------------------------------------------------
# exponent rewrites against the per-site loops
# ---------------------------------------------------------------------------

NAMES = ("a", "b", "c", "d", "u", "v", "w")


def same(got, want):
    """Equal alphabets and rings, and every coefficient of one type and
    value."""
    assert (got.ring, got.vars) == (want.ring, want.vars)
    assert typed(got.terms) == typed(want.terms)


@st.composite
def any_poly(draw, variables=None):
    """A polynomial over Z, Q or F_5 on ``variables``, or on a random
    alphabet of 1 to 4 names."""
    ring = draw(RINGS)
    if variables is None:
        variables = tuple(draw(st.permutations(NAMES))[: draw(st.integers(1, 4))])
    return draw(polys(variables, ring, max_deg=6, max_terms=6))


@st.composite
def ratfuns(draw):
    """A ratio on ``X1..XN`` with a random ``(Xi - Xj)``-power denominator."""
    N = draw(st.integers(1, 4))
    num = draw(any_poly(xvars(N)))
    pairs = itertools.combinations(range(N), 2)
    return RatFun(num, {pair: draw(st.integers(0, 3)) for pair in pairs})


class TestExponentRewrites:
    """``extend``, ``permute_vars``, ``RatFun.relabel``, a facet polynomial
    at a coloring, and ``L_n`` against ``oracle``'s loops, over Z, Q and
    F_p."""

    @given(any_poly(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_extend(self, p, data):
        extra = [v for v in NAMES if v not in p.vars]
        wider = data.draw(st.permutations(list(p.vars) + extra[: data.draw(st.integers(0, 3))]))
        same(p.extend(wider), oracle.extend_reference(p, wider))

    @given(any_poly(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_permute_vars(self, p, data):
        image = data.draw(st.permutations(p.vars))
        # fixed points are left out of the map: they stay where they are
        perm = {v: w for v, w in zip(p.vars, image) if v != w}
        same(p.permute_vars(perm), oracle.permute_vars_reference(p, perm))

    def test_permute_vars_rejects_a_non_bijection(self):
        p = var("x") ** 2 + var("y")
        # the reference writes both exponents into one slot, the last wins:
        # x^2 becomes 1
        assert oracle.permute_vars_reference(p, {"x": "y"}) == var("y") + 1
        with pytest.raises(ValueError, match="not a bijection"):
            p.permute_vars({"x": "y"})

    @given(ratfuns(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_relabel(self, r, data):
        perm = data.draw(st.permutations(range(len(r.num.vars))))
        got, want = r.relabel(perm), oracle.relabel_reference(r, perm)
        same(got.num, want.num)
        assert got.den == want.den

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_at_coloring(self, N, data):
        a = data.draw(st.integers(1, N))
        p = data.draw(any_poly(facet_vars(a, N - a)))
        color = frozenset(data.draw(st.permutations(range(1, N + 1)))[:a])
        same(foameval._at_coloring(p, color, N), oracle.at_coloring_reference(p, color, N))

    @given(any_poly(), st.integers(-1, 4))
    @settings(max_examples=80, deadline=None)
    def test_witt_act(self, q, n):
        same(witt_act(n, q), oracle.witt_act_reference(n, q))


# ---------------------------------------------------------------------------
# the rational-sum kernel against the generic paths
# ---------------------------------------------------------------------------

def difference(ring, i, j):
    return MultiPoly.var(ring, X3, X3[i]) - MultiPoly.var(ring, X3, X3[j])


def swap(poly, i, j):
    return poly.permute_vars({X3[i]: X3[j], X3[j]: X3[i]})


@st.composite
def ratfun_parts(draw):
    """Summands shaped like colored evaluations: ``(Xi - Xj)``-power
    denominators, numerators with some of those factors, and pairs that
    cancel, either outright or antisymmetrically over one factor."""
    ring = draw(RINGS)
    parts = []
    for _ in range(draw(st.integers(1, 5))):
        num = draw(polys(X3, ring, max_deg=3, max_terms=4))
        den = {}
        for pair in PAIRS:
            num = num * difference(ring, *pair) ** draw(st.integers(0, 2))
            den[pair] = draw(st.integers(0, 2))
        parts.append(RatFun(num, den))
        pair = draw(st.sampled_from(PAIRS))
        kind = draw(st.sampled_from(["none", "negate", "antisymmetrize"]))
        if kind == "negate":
            lifted = {**den, pair: den[pair] + 1}
            parts.append(RatFun(-num * difference(ring, *pair), lifted))
        elif kind == "antisymmetrize":
            parts.append(RatFun(num, {pair: 1}))
            parts.append(RatFun(-swap(num, *pair), {pair: 1}))
    return parts


def normalize_by_exact_div(r):
    """Reference: cancel ``(Xi - Xj)`` factors by generic exact division."""
    num, den = r.num, dict(r.den)
    if num.is_zero():
        return RatFun(num, {})
    for pair in sorted(den):
        while den[pair]:
            try:
                num = num.exact_div(difference(num.ring, *pair))
            except DivisionNotExact:
                break
            den[pair] -= 1
    return RatFun(num, den)


class TestRationalSumKernel:
    @given(ratfun_parts())
    @settings(max_examples=120, deadline=None)
    def test_sum_matches_pairwise_fold(self, parts):
        got = ratfun_sum(parts)
        want = functools.reduce(operator.add, parts).normalize()
        assert got.num == want.num
        assert got.den == want.den

    @given(ratfun_parts())
    @settings(max_examples=120, deadline=None)
    def test_normalize_matches_exact_division(self, parts):
        r = functools.reduce(operator.add, parts)
        got, want = r.normalize(), normalize_by_exact_div(r)
        assert got.num == want.num
        assert got.den == want.den

    @given(
        RINGS.flatmap(lambda ring: polys(X3, ring, max_deg=3, max_terms=4)),
        st.sampled_from(PAIRS),
        st.integers(0, 3),
        st.integers(0, 3),
    )
    @settings(max_examples=120, deadline=None)
    def test_factor_that_does_not_divide_stays(self, f, pair, k, m):
        i, j = pair
        onto_xj = {v: MultiPoly.var(f.ring, X3, X3[j] if v == X3[i] else v) for v in X3}
        at_diagonal = f.subs(onto_xj)
        assume(not at_diagonal.is_zero())
        r = RatFun(f * difference(f.ring, i, j) ** k, {pair: m}).normalize()
        assert r.den == ({pair: m - k} if m > k else {})
        assert r.num == f * difference(f.ring, i, j) ** max(k - m, 0)

    @given(st.data(), st.integers(1, 5), RINGS)
    @settings(max_examples=80, deadline=None)
    def test_lifts_reach_the_lcd(self, data, N, ring):
        vs = xvars(N)
        pairs = list(itertools.combinations(range(N), 2))
        exps = st.dictionaries(st.sampled_from(pairs), st.integers(1, 3)) if pairs else st.just({})
        keys = [tuple(sorted(d.items())) for d in data.draw(st.lists(exps, min_size=1, max_size=4))]
        lcd, lifts = polyring._lifts(keys, ring, vs)
        want = {}
        for key in keys:
            for pair, m in key:
                want[pair] = max(want.get(pair, 0), m)
        assert lcd == want

        def product(den):
            out = MultiPoly.const(ring, vs, 1)
            for (i, j), m in den:
                out = out * (MultiPoly.var(ring, vs, vs[i]) - MultiPoly.var(ring, vs, vs[j])) ** m
            return out

        assert len(lifts) == len(keys)
        for key, lift in zip(keys, lifts):
            assert lift * product(key) == product(lcd.items())

    def test_empty_sum_rejected(self):
        with pytest.raises(ValueError):
            ratfun_sum([])

    def test_mixed_rings_rejected(self):
        a = RatFun(MultiPoly.const(ZZ, X3, 1), {(0, 1): 1})
        b = RatFun(MultiPoly.const(QQ, X3, 1), {(0, 1): 1})
        with pytest.raises(WrongRing):
            ratfun_sum([a, b])


def compositions(n):
    """Every composition of ``n`` into positive parts."""
    if n == 0:
        yield ()
    for k in range(1, n + 1):
        for rest in compositions(n - k):
            yield (k, *rest)


@st.composite
def block_invariant(draw, ring, blocks, max_deg):
    """A polynomial invariant under the Young subgroup of ``blocks``: a sum
    of products of one monomial symmetric polynomial per block."""
    vs = xvars(sum(blocks))
    out = MultiPoly.zero(ring, vs)
    for _ in range(draw(st.integers(1, 3))):
        term = MultiPoly.const(ring, vs, draw(st.integers(-4, 4)))
        start = 0
        for size in blocks:
            lam = sorted(draw(st.lists(st.integers(0, max_deg), min_size=size, max_size=size)))
            mono = dict.fromkeys(polyring._distinct_permutations(tuple(lam)), 1)
            block = MultiPoly(ring, vs[start:start + size], mono)
            term = term * block.extend(vs)
            start += size
        out = out + term
    return out


def coset_sum(g, blocks):
    """``sum sigma(g / Delta_P)`` over the permutations increasing on each
    block, one per coset of the Young subgroup, in one ``ratfun_sum``."""
    N = len(g.vars)
    block_of = [b for b, size in enumerate(blocks) for _ in range(size)]
    delta = {
        (i, j): 1 for i, j in itertools.combinations(range(N), 2) if block_of[i] != block_of[j]
    }
    parts = [
        RatFun(g, delta).relabel(perm)
        for perm in itertools.permutations(range(N))
        if all(perm[i] < perm[i + 1] for i in range(N - 1) if block_of[i] == block_of[i + 1])
    ]
    return ratfun_sum(parts).as_polynomial()


class TestPushforward:
    """Orbit sums read as Schur coefficients, against the coset sum and the
    divided differences of ``oracle.pushforward_reference``."""

    @staticmethod
    def pushed(g, blocks):
        basis = polyring.ElementaryBasis(g.vars)
        coeffs = polyring._schur_coefficients(g, blocks)
        return basis.from_e(basis.from_schur(g.ring, coeffs))

    @pytest.mark.parametrize(
        "blocks", [b for N in range(1, 6) for b in compositions(N)], ids=str
    )
    @given(st.data(), RINGS)
    @settings(max_examples=15, deadline=None)
    def test_matches_the_coset_sum(self, blocks, data, ring):
        # parts up to N + 2 reach the degrees >= N - 1 where a wrong sign
        # or staircase sends the sum to 0
        N = sum(blocks)
        g = data.draw(block_invariant(ring, blocks, N + 2))
        got = self.pushed(g, blocks)
        assert got == oracle.pushforward_reference(g, blocks)
        if N <= 4:
            assert got == coset_sum(g, blocks)

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_full_flag_of_a_staircase(self, N):
        # over singleton blocks, d_{w_0} sends x^delta to s_0 = 1 and
        # x^delta * x_1 to s_1 = p_1; one block reads a symmetric g's Schur
        # coefficients, p_2 = s_2 - s_11
        vs = xvars(N)
        zero = (0,) * N
        s1, s2, s11 = ((1,) + zero[1:], (2,) + zero[1:], (1, 1) + zero[2:])
        delta = MultiPoly(ZZ, vs, {tuple(range(N - 1, -1, -1)): 1})
        singletons = (1,) * N
        assert polyring._schur_coefficients(delta, singletons) == {zero: 1}
        x1 = MultiPoly.var(ZZ, vs, vs[0])
        assert polyring._schur_coefficients(delta * x1, singletons) == {s1: 1}
        assert polyring._schur_coefficients(power_sum(ZZ, vs, 2), (N,)) == {s2: 1, s11: -1}

    @given(RINGS.flatmap(lambda ring: polys(X3, ring, max_deg=6, max_terms=6)), st.integers(0, 1))
    @settings(max_examples=80, deadline=None)
    def test_divided_difference_divides_the_antisymmetric_part(self, f, i):
        # the reference d_i, against synthetic division by x_i - x_{i+1}
        swapped = f.permute_vars({X3[i]: X3[i + 1], X3[i + 1]: X3[i]})
        odd = (f - swapped).terms
        want = polyring._divide_by_difference(odd, i, i + 1, f.ring) if odd else {}
        got = oracle.divided_difference_reference(f.terms, i, f.ring)
        assert got == MultiPoly._from_raw(f.ring, X3, want).terms

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_schur_is_the_bialternant(self, N):
        # s_lam * a_delta = a_{lam + delta}, with a_beta = det(x_i^beta_j)
        vs = xvars(N)
        basis = polyring.ElementaryBasis(vs)
        delta = tuple(range(N - 1, -1, -1))

        def alternant(beta):
            terms = {}
            for perm in itertools.permutations(range(N)):
                sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
                terms[tuple(beta[perm[i]] for i in range(N))] = sign
            return MultiPoly(ZZ, vs, terms)

        for size in range(7):
            for lam in {tuple(sorted(c, reverse=True)) for c in polyring._compositions(size, N)}:
                s = basis.from_e(MultiPoly(ZZ, basis.e_names, basis.schur(lam)))
                assert s * alternant(delta) == alternant(tuple(map(operator.add, lam, delta)))

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    @given(st.data(), ALL_RINGS)
    @settings(max_examples=25, deadline=None)
    def test_to_e_matches_leading_term_subtraction(self, N, data, ring):
        basis = polyring.ElementaryBasis(xvars(N))
        f = data.draw(block_invariant(ring, (N,), 5))
        assert basis.to_e(f) == oracle.to_e_reference(basis, f)
        if N > 1:
            broken = f + MultiPoly.var(ring, f.vars, "X1")
            for convert in (basis.to_e, lambda p: oracle.to_e_reference(basis, p)):
                with pytest.raises(NotInSymmetricSubring):
                    convert(broken)


# ---------------------------------------------------------------------------
# quantum binomials
# ---------------------------------------------------------------------------

class TestQBinom:
    def test_matches_dense_gaussian_binomial(self):
        for m in range(-2, 14):
            for a in range(-1, m + 2):
                assert qbinom_laurent(m, a) == oracle.qbinom_dense(m, a), (m, a)

    def test_small_values(self):
        assert qbinom_laurent(2, 1) == {-1: 1, 1: 1}
        assert qbinom_laurent(3, 1) == {-2: 1, 0: 1, 2: 1}
        assert qbinom_laurent(3, 2) == {-2: 1, 0: 1, 2: 1}
        assert qbinom_laurent(4, 2) == {-4: 1, -2: 1, 0: 2, 2: 1, 4: 1}
        assert qbinom_laurent(4, 4) == {0: 1}

    def test_specialize_q1(self):
        from math import comb

        for m in range(6):
            for a in range(m + 1):
                assert sum(qbinom_laurent(m, a).values()) == comb(m, a)


# ---------------------------------------------------------------------------
# alphabets
# ---------------------------------------------------------------------------

def test_facet_vars_inside_then_outside():
    assert polyring.facet_vars(2) == ("x1", "x2")
    assert polyring.facet_vars(2, 1) == ("x1", "x2", "y1")
    assert polyring.facet_vars(0, 2) == ("y1", "y2")
    assert polyring.facet_vars(0) == ()

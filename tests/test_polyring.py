"""Tests for the exact polynomial / rational-function core."""

import functools
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracle
from foamlab import polyring
from foamlab.errors import (
    DivisionNotExact,
    ElementaryNotTerminating,
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

    def test_to_elementary_guard_is_typed(self, monkeypatch):
        # p_4 in three variables takes one step per partition of 4 with at
        # most three parts: (4), (3,1), (2,2), (2,1,1)
        p = power_sum(ZZ, V3, 4)
        monkeypatch.setattr(polyring, "_TO_ELEMENTARY_STEPS", 4)
        assert from_elementary(to_elementary(p), V3) == p
        monkeypatch.setattr(polyring, "_TO_ELEMENTARY_STEPS", 3)
        with pytest.raises(ElementaryNotTerminating) as info:
            to_elementary(p)
        assert isinstance(info.value, FoamlabError)

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
            part = q.homogeneous_part(d)
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
        assert total.is_polynomial()
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

    def test_empty_sum_rejected(self):
        with pytest.raises(ValueError):
            ratfun_sum([])

    def test_mixed_rings_rejected(self):
        a = RatFun(MultiPoly.const(ZZ, X3, 1), {(0, 1): 1})
        b = RatFun(MultiPoly.const(QQ, X3, 1), {(0, 1): 1})
        with pytest.raises(WrongRing):
            ratfun_sum([a, b])


# ---------------------------------------------------------------------------
# quantum binomials
# ---------------------------------------------------------------------------

class TestQBinom:
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

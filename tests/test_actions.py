"""Tests for the operator family on movies: half-Witt, sl2, p-DG.

The structural identities (commutators, sl2 relations, the dictionary
between the two families) are checked symbolically on formal sums; the
evaluation compatibility checks compare against the independent closed-foam
evaluation, both summed and coloring by coloring.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from foamlab import actions, foameval, polyring
from foamlab.actions import (
    ActionParams,
    FoamSum,
    _derivation_rule,
    _dot_rule,
    act_pdg,
    act_sl2,
    act_witt,
    apply_operator,
    colored_compat_check,
    commutator_check,
    half_scalar,
    pdg_iterate,
    sl2_from_witt,
    sl2_relations_check,
    verify_compat,
    witt_act_ratfun,
)
from foamlab.corpus import basic_open_movies, closed_corpus, spherical_corpus
from foamlab.errors import (
    CharTwoNonSpherical,
    FoamlabError,
    IndexOutOfRange,
    InputError,
    NonSphericalWithNu3,
    TwoNotInvertible,
    WrongRing,
)
from foamlab.foamcore import Decorate, MovieBuilder, Saddle, compose, compile_movie
from foamlab.foameval import _orbit_poly, degree, evaluate
from foamlab.polyring import (
    GF,
    MultiPoly,
    QQ,
    RatFun,
    WittSequence,
    ZZ,
    facet_vars,
    power_sum,
    symmetric_basis,
    witt_act,
    xvars,
)

INDICES = (-1, 0, 1, 2, 3)
APPLICATOR_INDICES = INDICES + (4,)


def rich_pack(ring=QQ, N=3, **kw):
    kw.setdefault("s", Fraction(1, 4))
    kw.setdefault("nu1", WittSequence.linear(ring, Fraction(1, 2)))
    kw.setdefault("nu2", WittSequence.linear(ring, Fraction(-1, 3)))
    kw.setdefault("nu3", WittSequence.linear(ring, Fraction(1, 5)))
    return ActionParams(ring=ring, N=N, **kw)


def saddle_pack(ring=QQ, N=3, **kw):
    kw.setdefault("s", Fraction(1, 4))
    kw.setdefault("nu1", WittSequence.linear(ring, Fraction(1, 2)))
    kw.setdefault("nu2", WittSequence.linear(ring, Fraction(-1, 3)))
    return ActionParams(ring=ring, N=N, spherical=False, **kw)


PARAM_PACKS = [
    rich_pack(),
    rich_pack(s=Fraction(-2, 7), nu1=WittSequence.zero(QQ),
              nu2=WittSequence.linear(QQ, 3), nu3=WittSequence.linear(QQ, Fraction(-1, 2))),
    rich_pack(s=0, nu1=WittSequence.linear(QQ, Fraction(5, 6)),
              nu2=WittSequence.linear(QQ, Fraction(5, 6)), nu3=WittSequence.zero(QQ)),
]


def dotted_sphere(power=1, thickness=1):
    b = MovieBuilder()
    c = b.cup(thickness)
    b.decorate(
        c,
        symmetric_basis(
            "power_sum", power, ZZ, tuple(f"x{i}" for i in range(1, thickness + 1))
        ),
    )
    b.cap(c)
    return b.movie()


class TestActionParams:
    def test_defaults_fill_zero_sequences(self):
        P = ActionParams(ring=QQ, N=2)
        assert P.nu1.is_identically_zero()
        assert P.t3 == Fraction(1, 2)

    def test_bad_sequence_rejected(self):
        bad = WittSequence.from_table(QQ, [0, 1, 1, 1])
        with pytest.raises(InputError):
            ActionParams(ring=QQ, N=2, nu1=bad)

    def test_table_sequence_accepted_when_linear(self):
        seq = WittSequence.from_table(QQ, [0, 2, 4, 6, 8, 10])
        P = ActionParams(ring=QQ, N=2, nu1=seq)
        assert P.nu1(2) == 6

    def test_nonspherical_requires_zero_nu3(self):
        with pytest.raises(NonSphericalWithNu3):
            ActionParams(
                ring=QQ, N=2, nu3=WittSequence.linear(QQ, 1), spherical=False
            )

    def test_nonspherical_requires_half(self):
        with pytest.raises(TwoNotInvertible):
            ActionParams(ring=ZZ, N=2, spherical=False)

    def test_nonspherical_pins_t3(self):
        with pytest.raises(InputError):
            ActionParams(ring=QQ, N=2, t3=1, spherical=False)

    @pytest.mark.parametrize(
        "ring,field,value,reason",
        [
            (ZZ, "s", Fraction(1, 2), "1/2 is not an integer"),
            (ZZ, "t1", Fraction(-3, 2), "-3/2 is not an integer"),
            (ZZ, "t3", Fraction(1, 2), "1/2 is not an integer"),
            (GF(5), "s", Fraction(1, 5), "denominator 5 not invertible mod 5"),
            (GF(3), "t2", Fraction(2, 3), "denominator 3 not invertible mod 3"),
        ],
    )
    def test_scalar_outside_the_ring_is_an_input_error(self, ring, field, value, reason):
        with pytest.raises(InputError) as info:
            ActionParams(ring=ring, N=2, **{field: value})
        assert str(info.value) == f"{field} = {value} is not in {ring}: {reason}"

    def test_sl2_from_witt_dictionary_values(self):
        P = sl2_from_witt(ActionParams(ring=QQ, N=2))
        assert (P.t1, P.t2, P.t3) == (0, 0, Fraction(1, 2))
        Q = sl2_from_witt(rich_pack())
        assert Q.t1 == Fraction(1, 2) * 2 + Fraction(1, 4)
        assert Q.t3 == Fraction(1, 5) * 2 + Fraction(1, 2)

    def test_sl2_from_witt_needs_half(self):
        with pytest.raises(TwoNotInvertible):
            sl2_from_witt(ActionParams(ring=ZZ, N=2))


class TestFoamSum:
    def test_round_trip_of_plain_movie(self):
        P = rich_pack(N=2)
        mov = dotted_sphere(2)
        S = FoamSum.from_movie(mov, P)
        assert len(S) == 1
        (coef, rebuilt), = list(S.movies())
        assert coef == 1
        assert evaluate(rebuilt, 2, QQ).value == evaluate(mov, 2, QQ).value

    def test_merge_cancels(self):
        P = rich_pack(N=2)
        S = FoamSum.from_movie(dotted_sphere(1), P)
        assert (S - S).is_zero()
        assert (S.scale(3) - S - S - S).is_zero()

    def test_value_of_scaled_sum(self):
        P = rich_pack(N=2)
        S = FoamSum.from_movie(dotted_sphere(1), P).scale(Fraction(5, 2))
        assert S.value() == MultiPoly.const(QQ, xvars(2), Fraction(-5, 2))

    def test_thickness_beyond_N_rejected(self):
        P = rich_pack(N=1)
        with pytest.raises(InputError):
            FoamSum.from_movie(dotted_sphere(1, thickness=2), P)


    def test_operator_rejects_a_sum_over_another_pack(self):
        S = FoamSum.from_movie(dotted_sphere(), ActionParams(ring=QQ, N=2))
        with pytest.raises(InputError):
            act_witt(1, ActionParams(ring=QQ, N=3), S)
        with pytest.raises(InputError):
            act_sl2("f", ActionParams(ring=GF(5), N=2), S)
        with pytest.raises(InputError):
            apply_operator("d", ActionParams(ring=GF(5), N=2), S)


class TestFoamSumValue:
    """``FoamSum.value`` evaluates shape maps on the skeleton, movie-free."""

    @staticmethod
    def per_term(S, params):
        total = MultiPoly.zero(params.ring, xvars(params.N))
        for coef, mov in S.movies():
            total = total + evaluate(mov, params.N, params.ring).value * coef
        return total

    def test_witt_and_sl2_images_match_per_term_evaluation(self, monkeypatch):
        seen = 0
        for mov in decorated_closed(seed=71, count=12, half_moves=4):
            Pw = saddle_pack() if has_saddle(mov) else rich_pack()
            Ps = sl2_from_witt(Pw)
            images = [act_witt(n, Pw, mov) for n in (-1, 0, 1, 2)]
            images += [act_sl2(g, Ps, mov) for g in ("e", "h", "f")]
            for S in images:
                want = self.per_term(S, Pw)
                with monkeypatch.context() as m:
                    m.setattr(FoamSum, "_materialize", None)
                    got = S.value()
                assert got == want, mov
                seen += not want.is_zero()
        assert seen >= 20

    def test_value_of_open_sum_is_rejected(self):
        S = act_witt(1, rich_pack(N=2), basic_open_movies(1, 1)["cup"])
        with pytest.raises(InputError):
            S.value()


class TestWittCommutators:
    @pytest.mark.parametrize("pack_idx", [0, 1, 2])
    @pytest.mark.parametrize("ab", [(1, 1), (1, 2)])
    def test_basic_movies_all_index_pairs(self, pack_idx, ab):
        P = PARAM_PACKS[pack_idx]
        Psad = ActionParams(ring=QQ, N=3, s=P.s, nu1=P.nu1, nu2=P.nu2)
        for name, mov in basic_open_movies(*ab).items():
            pack = Psad if name == "saddle" else P
            for n in INDICES:
                for m in INDICES:
                    rep = commutator_check(n, m, pack, mov)
                    assert rep.ok, (name, n, m, rep.detail)

    def test_commutator_on_closed_decorated_movie(self):
        P = rich_pack(N=2)
        for n, m in [(1, -1), (2, 1), (3, -1)]:
            rep = commutator_check(n, m, P, dotted_sphere(2))
            assert rep.ok, rep.detail

    def test_minus_one_kills_cup(self):
        P = rich_pack(N=2)
        mov = basic_open_movies()["cup"]
        assert act_witt(-1, P, mov).is_zero()

    def test_decoration_leibniz_matches_polynomial_derivation(self):
        # on a single decorated facet the operator is the plain derivation
        from foamlab.polyring import witt_act

        P = ActionParams(ring=QQ, N=3)  # all move images vanish
        mov = basic_open_movies()["decorate"]
        dec = mov.moves[0].poly
        for n in INDICES:
            S = act_witt(n, P, mov)
            img = witt_act(n, dec.poly)
            if img.is_zero():
                assert S.is_zero()
                continue
            total = MultiPoly.zero(QQ, dec.poly.vars)
            for coef, m2 in S.movies():
                d2 = compile_movie(m2).facets["f1"].decorations
                part = MultiPoly.const(QQ, dec.poly.vars, 1)
                for sym in d2:
                    ext = sym.poly
                    if ext.vars != dec.poly.vars:
                        ext = MultiPoly(
                            QQ, dec.poly.vars,
                            {e[: len(dec.poly.vars)]: c for e, c in ext.terms.items()},
                        )
                    part = part * ext
                total = total + part * coef
            assert total == img.map_coefficients(QQ, QQ.normalize)


class TestGrading:
    def test_witt_shifts_degree_by_2n(self):
        P = rich_pack(N=3)
        for mov in spherical_corpus(seed=53, count=4):
            d = degree(mov, 3)
            for n in INDICES:
                for coef, m2 in act_witt(n, P, mov).movies():
                    assert degree(m2, 3) == d + 2 * n

    def test_sl2_grading(self):
        P = ActionParams(ring=QQ, N=2, t1=Fraction(1, 3), t2=Fraction(1, 7))
        shifts = {"e": -2, "h": 0, "f": 2}
        for mov in spherical_corpus(seed=61, count=4):
            d = degree(mov, 2)
            for g, shift in shifts.items():
                for coef, m2 in act_sl2(g, P, mov).movies():
                    assert degree(m2, 2) == d + shift


class TestLeibnizOverComposition:
    def test_witt_action_splits_over_compose(self):
        P = rich_pack(N=2)
        parts = basic_open_movies()
        a = parts["cup"]
        b = parts["cap"]
        whole = compose(a, b)
        for n in (0, 1, 2):
            lhs = act_witt(n, P, whole)
            rhs = None
            for coef, m1 in act_witt(n, P, a).movies():
                piece = FoamSum.from_movie(compose(m1, b), P).scale(coef)
                rhs = piece if rhs is None else rhs + piece
            for coef, m2 in act_witt(n, P, b).movies():
                piece = FoamSum.from_movie(compose(a, m2), P).scale(coef)
                rhs = piece if rhs is None else rhs + piece
            assert rhs is not None and (lhs - rhs).is_zero(), n


class TestSl2:
    @pytest.mark.parametrize(
        "ring,ts",
        [
            (QQ, (Fraction(1, 3), Fraction(-2, 5), Fraction(1, 7))),
            (ZZ, (2, -1, 3)),
            (GF(5), (2, 3, 4)),
        ],
    )
    def test_relations_on_basic_movies(self, ring, ts):
        P = ActionParams(ring=ring, N=3, t1=ts[0], t2=ts[1], t3=ts[2])
        for name, mov in basic_open_movies(1, 2).items():
            if name == "saddle" and ring.kind == "Z":
                with pytest.raises(TwoNotInvertible):
                    act_sl2("f", P, mov)
                continue
            rep = sl2_relations_check(P, mov)
            assert rep.ok, (name, rep.detail)

    def test_relations_over_Z_without_halves(self):
        # the spherical sl2 action never divides by two
        P = ActionParams(ring=ZZ, N=3, t1=1, t2=-2, t3=0)
        for name, mov in basic_open_movies().items():
            if name == "saddle":
                continue
            rep = sl2_relations_check(P, mov)
            assert rep.ok, (name, rep.detail)

    def test_relations_on_saddle_over_Q(self):
        P = ActionParams(ring=QQ, N=2, spherical=False, t1=Fraction(1, 3))
        rep = sl2_relations_check(P, basic_open_movies()["saddle"])
        assert rep.ok, rep.detail

    def test_e_annihilates_undecorated_basic_movies(self):
        P = rich_pack()
        for name, mov in basic_open_movies(1, 2).items():
            if name == "decorate":
                continue
            assert act_sl2("e", sl2_from_witt(P), mov).is_zero(), name

    def test_h_eigenvalue_is_minus_degree(self):
        # on a closed movie, h acts on the value by -qdegree
        P = sl2_from_witt(rich_pack(N=2))
        mov = dotted_sphere(2)
        d = degree(mov, 2)
        S = act_sl2("h", P, mov)
        assert S.value() == evaluate(mov, 2, QQ).value * (-d)


class TestDictionary:
    def test_sl2_matches_witt_on_basic_movies(self):
        Pw = rich_pack()
        Ps = sl2_from_witt(Pw)
        for ab in [(1, 1), (1, 2)]:
            for name, mov in basic_open_movies(*ab).items():
                if name == "saddle":
                    continue
                assert (act_sl2("e", Ps, mov) - act_witt(-1, Pw, mov)).is_zero(), name
                assert (
                    act_sl2("h", Ps, mov) - act_witt(0, Pw, mov).scale(2)
                ).is_zero(), name
                assert (act_sl2("f", Ps, mov) + act_witt(1, Pw, mov)).is_zero(), name

    def test_sl2_matches_witt_on_saddle(self):
        Pw = ActionParams(ring=QQ, N=3, s=Fraction(1, 4),
                          nu1=WittSequence.linear(QQ, Fraction(1, 2)),
                          nu2=WittSequence.linear(QQ, Fraction(-1, 3)),
                          spherical=False)
        Ps = sl2_from_witt(Pw)
        mov = basic_open_movies()["saddle"]
        assert (act_sl2("e", Ps, mov) - act_witt(-1, Pw, mov)).is_zero()
        assert (act_sl2("h", Ps, mov) - act_witt(0, Pw, mov).scale(2)).is_zero()
        assert (act_sl2("f", Ps, mov) + act_witt(1, Pw, mov)).is_zero()


class TestEvaluationCompat:
    def test_spherical_corpus(self):
        P = rich_pack(N=3)
        for mov in spherical_corpus(seed=41, count=6, half_moves=3):
            for n in INDICES:
                rep = verify_compat(mov, n, P)
                assert rep.ok, (n, rep.detail)

    def test_saddle_corpus_with_zero_nu3(self):
        P = saddle_pack(N=2)
        movs = [
            m
            for m in closed_corpus(seed=43, count=20)
            if any(type(x).__name__ == "Saddle" for x in m.moves)
        ]
        assert movs
        for mov in movs[:4]:
            for n in (-1, 0, 1, 2):
                rep = verify_compat(mov, n, P)
                assert rep.ok, (n, rep.detail)

    def test_per_coloring_residuals(self):
        P = rich_pack(N=3)
        for mov in spherical_corpus(seed=59, count=4):
            for n in INDICES:
                rep = colored_compat_check(mov, n, P)
                assert rep.ok, (n, rep.detail)

    def test_dotted_sphere_explicit(self):
        P = rich_pack(N=2)
        for n in (1, 2):
            assert verify_compat(dotted_sphere(1), n, P).ok

    def test_saddle_with_nonzero_nu3_raises(self):
        P = rich_pack(N=2)
        movs = [
            m
            for m in closed_corpus(seed=43, count=20)
            if any(type(x).__name__ == "Saddle" for x in m.moves)
        ]
        with pytest.raises(NonSphericalWithNu3):
            act_witt(1, P, movs[0])

    def test_half_required_over_Z(self):
        P = ActionParams(ring=ZZ, N=2)
        with pytest.raises(TwoNotInvertible):
            act_witt(1, P, dotted_sphere(1))


class TestWittOnRatios:
    def test_plain_polynomial(self):
        from foamlab.polyring import witt_act

        p = MultiPoly.var(QQ, xvars(2), "X1") ** 2
        r = witt_act_ratfun(1, RatFun(p))
        assert r == RatFun(witt_act(1, p))

    def test_quotient_rule(self):
        # L_1(1/(X1-X2)) = (X1^2 - X2^2)/(X1-X2)^2 = (X1+X2)/(X1-X2)
        one = MultiPoly.const(QQ, xvars(2), 1)
        x1 = MultiPoly.var(QQ, xvars(2), "X1")
        x2 = MultiPoly.var(QQ, xvars(2), "X2")
        r = witt_act_ratfun(1, RatFun(one, {(0, 1): 1}))
        assert r == RatFun(x1 + x2, {(0, 1): 1})

    def test_index_minus_one_on_quotient(self):
        one = MultiPoly.const(QQ, xvars(2), 1)
        r = witt_act_ratfun(-1, RatFun(one, {(0, 1): 1}))
        assert r == RatFun(MultiPoly.zero(QQ, xvars(2)), {(0, 1): 1})


class TestPdg:
    @pytest.mark.parametrize("p", [3, 5])
    def test_p_fold_iterate_vanishes(self, p):
        R = GF(p)
        P = ActionParams(ring=R, N=2, t1=2, t2=p - 1, t3=half_scalar(R),
                         spherical=False)
        for mov in closed_corpus(seed=47, count=5, half_moves=2):
            S = pdg_iterate(P, mov, p)
            assert S.is_zero() or S.value().is_zero()

    def test_requires_prime_field(self):
        P = ActionParams(ring=QQ, N=2)
        with pytest.raises(WrongRing):
            act_pdg(P, dotted_sphere(1))

    def test_char_two_spherical_only(self):
        R = GF(2)
        P = ActionParams(ring=R, N=2, t1=1, t2=1, t3=1)
        act_pdg(P, dotted_sphere(1))  # no saddle: fine
        saddled = [
            m
            for m in closed_corpus(seed=43, count=20)
            if any(type(x).__name__ == "Saddle" for x in m.moves)
        ][0]
        with pytest.raises(CharTwoNonSpherical):
            act_pdg(P, saddled)

    def test_differential_is_f(self):
        R = GF(3)
        P = ActionParams(ring=R, N=2, t1=1, t2=2, t3=2, spherical=False)
        mov = dotted_sphere(2)
        assert (act_pdg(P, mov) - act_sl2("f", P, mov)).is_zero()


# ---------------------------------------------------------------------------
# The dot-shape rules and the applicator against the polynomial reference
# ---------------------------------------------------------------------------

RULE_RINGS = (ZZ, QQ, GF(2), GF(3))


@st.composite
def dot_shapes(draw):
    """(a, m, shape): blocks of sizes a in 1..3 and m in 0..3, parts <= 4."""
    a = draw(st.integers(1, 3))
    m = draw(st.integers(0, 3))
    part = st.integers(0, 4)
    lam = draw(st.lists(part, min_size=a, max_size=a))
    mu = draw(st.lists(part, min_size=m, max_size=m))
    return a, m, (tuple(sorted(lam, reverse=True)), tuple(sorted(mu, reverse=True)))


def expand_shapes(ring, a, m, pairs):
    total = MultiPoly.zero(ring, facet_vars(a, m))
    for shape, c in pairs:
        total = total + _orbit_poly(ring, shape) * c
    return total


class TestDotShapeRules:
    @settings(max_examples=200, deadline=None)
    @given(dot_shapes(), st.integers(-1, 3), st.sampled_from(RULE_RINGS))
    def test_derivation_rule_is_witt_act(self, am_shape, n, ring):
        a, m, shape = am_shape
        got = expand_shapes(ring, a, m, _derivation_rule(shape, n).items())
        assert got == witt_act(n, _orbit_poly(ring, shape))

    @settings(max_examples=200, deadline=None)
    @given(dot_shapes(), st.integers(1, 3), st.booleans(), st.sampled_from(RULE_RINGS))
    def test_dot_rule_is_power_sum_product(self, am_shape, k, hat, ring):
        a, m, shape = am_shape
        vs = facet_vars(a, m)
        block = vs[a:] if hat else vs[:a]
        want = power_sum(ring, block, k).extend(vs) * _orbit_poly(ring, shape)
        assert expand_shapes(ring, a, m, _dot_rule(shape, k, hat)) == want


def sorted_change_one_part(block, step):
    """The rule as first written: sort a fresh tuple per distinct part."""
    for i, v in enumerate(block):
        if i and block[i - 1] == v:
            continue
        w = v + step
        new = tuple(sorted(block[:i] + (w,) + block[i + 1:], reverse=True))
        yield v, new, new.count(w)


class TestChangeOnePart:
    def test_matches_sorting_every_block(self):
        blocks = [
            tuple(sorted(parts, reverse=True))
            for k in range(5)
            for parts in itertools.combinations_with_replacement(range(6), k)
        ]
        for block in blocks:
            for step in range(-1, 4):
                got = list(actions._change_one_part(block, step))
                assert got == list(sorted_change_one_part(block, step)), (block, step)


def has_saddle(mov):
    return any(isinstance(x, Saddle) for x in mov.moves)


def decorated_closed(seed, count, **kw):
    movs = [
        m for m in closed_corpus(seed=seed, count=count, **kw)
        if any(isinstance(x, Decorate) for x in m.moves)
    ]
    assert movs
    return movs


def same_terms(S, R):
    """Equal terms, in the same order, with coefficients of the same type."""
    return [(type(c), c, d) for c, d in S.terms] == [(type(c), c, d) for c, d in R.terms]


def outcome(fn):
    """What ``fn()`` gives: a formal sum, or the type of the error it raises."""
    try:
        return fn()
    except FoamlabError as exc:
        return type(exc)


def same_outcome(a, b):
    """Two outcomes: ``same_terms`` on two sums, or the same error type."""
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return same_terms(a, b)


def table_seq(ring, slope, n_max):
    """The linear sequence of ``slope`` stored as a ``tab:`` table up to ``n_max``."""
    return WittSequence.from_table(ring, [slope * (n + 1) for n in range(-1, n_max + 1)])


def witt_cases():
    """(pack, formal sum) pairs: basic movies and closed decorated movies,
    saddles included, each also through one L_2 image for richer shapes."""
    for ab in ((1, 1), (1, 2)):
        for name, mov in basic_open_movies(*ab).items():
            yield (saddle_pack() if name == "saddle" else rich_pack()), mov
    for mov in decorated_closed(seed=71, count=12, half_moves=4):
        yield (saddle_pack() if has_saddle(mov) else rich_pack()), mov


class TestDotShapeApplicator:
    def test_witt_matches_reference(self):
        for pack, mov in witt_cases():
            S = FoamSum.from_movie(mov, pack)
            for T in (S, act_witt(2, pack, S)):
                for n in APPLICATOR_INDICES:
                    assert same_terms(
                        act_witt(n, pack, T), oracle.witt_reference(n, pack, T)
                    ), (mov, n)

    @pytest.mark.parametrize(
        "ring,ts", [(QQ, (Fraction(1, 3), Fraction(-2, 5))), (GF(2), (1, 1))]
    )
    def test_sl2_matches_reference(self, ring, ts):
        movs = list(basic_open_movies(1, 2).values())
        movs += decorated_closed(seed=78, count=12, half_moves=4)
        for mov in movs:
            if has_saddle(mov) and ring.kind == "Fp":
                continue
            P = ActionParams(
                ring=ring, N=3, t1=ts[0], t2=ts[1], t3=None if has_saddle(mov) else 1,
                spherical=not has_saddle(mov),
            )
            S = FoamSum.from_movie(mov, P)
            for T in (S, act_sl2("f", P, S)):
                for gen in ("e", "h", "f"):
                    assert same_terms(
                        act_sl2(gen, P, T), oracle.sl2_reference(gen, P, T)
                    ), (mov, gen)

    @pytest.mark.parametrize("p,N", [(3, 4), (5, 3)])
    def test_pdg_matches_reference(self, p, N):
        R = GF(p)
        P = ActionParams(ring=R, N=N, t1=2, t2=p - 1, t3=half_scalar(R), spherical=False)
        for mov in decorated_closed(seed=89, count=12, half_moves=3, max_thickness=3):
            S = FoamSum.from_movie(mov, P)
            for _ in range(p):
                ref = oracle.sl2_reference("f", P, S)
                S = act_pdg(P, S)
                assert same_terms(S, ref), mov

    def test_applicator_does_no_polynomial_work(self, monkeypatch):
        Pw = rich_pack()
        Ps = sl2_from_witt(Pw)
        mov = decorated_closed(seed=89, count=6, allow_saddle=False)[0]
        Sw, Ss = FoamSum.from_movie(mov, Pw), FoamSum.from_movie(mov, Ps)

        def forbidden(*args, **kw):
            raise AssertionError("polynomial work in the dot-shape applicator")

        for mod, name in (
            (polyring, "witt_act"), (actions, "witt_act"), (polyring, "power_sum"),
            (actions, "_orbit_poly"), (foameval, "_orbit_poly"),
            (foameval, "_orbit_decompose"),
            (MultiPoly, "__init__"),
        ):
            monkeypatch.setattr(mod, name, forbidden)
        witt = {n: act_witt(n, Pw, Sw) for n in INDICES}
        sl2 = {g: act_sl2(g, Ps, Ss) for g in ("e", "h", "f")}
        monkeypatch.undo()
        for n, img in witt.items():
            assert not img.is_zero() and same_terms(img, oracle.witt_reference(n, Pw, Sw))
        for g, img in sl2.items():
            assert not img.is_zero() and same_terms(img, oracle.sl2_reference(g, Ps, Ss))

    def test_witt_table_sequences_match_reference(self):
        # tab: sequences, some too short for L_4, and nonzero nu3 of several
        # slopes on saddle-free movies; on saddles every n >= 0 must raise.
        # Over Z a cup reads nu3(n) before it fails to find 1/2.
        packs = [
            rich_pack(nu1=table_seq(QQ, Fraction(1, 2), 8), nu2=table_seq(QQ, -2, 3),
                      nu3=table_seq(QQ, Fraction(-3, 7), 8)),
            rich_pack(s=Fraction(2, 3), nu3=table_seq(QQ, 4, 3)),
            ActionParams(ring=GF(5), N=3, s=3, nu1=table_seq(GF(5), 2, 5),
                         nu2=WittSequence.linear(GF(5), 4), nu3=table_seq(GF(5), 1, 8)),
            ActionParams(ring=ZZ, N=3, s=2, nu1=table_seq(ZZ, 3, 8),
                         nu2=table_seq(ZZ, -1, 8), nu3=table_seq(ZZ, 1, 3)),
        ]
        movs = list(basic_open_movies(1, 1).values()) + list(basic_open_movies(1, 2).values())
        movs += decorated_closed(seed=71, count=12, half_moves=4)
        raised = set()
        for pack in packs:
            for mov in movs:
                S = FoamSum.from_movie(mov, pack)
                for T in (S, act_witt(-1, pack, S)):
                    for n in APPLICATOR_INDICES:
                        got = outcome(lambda: act_witt(n, pack, T))
                        ref = outcome(lambda: oracle.witt_reference(n, pack, T))
                        assert same_outcome(got, ref), (mov, n)
                        if isinstance(got, type):
                            raised.add(got)
        assert {IndexOutOfRange, NonSphericalWithNu3, TwoNotInvertible} <= raised

    @pytest.mark.parametrize("ts", [(1, 1), (1, 0), (0, 1)])
    def test_sl2_over_gf2_with_t3_zero(self, ts):
        # no 1/2 exists: h and e work everywhere, f raises on saddles
        P = ActionParams(ring=GF(2), N=3, t1=ts[0], t2=ts[1], t3=0)
        movs = list(basic_open_movies(1, 2).values())
        movs += closed_corpus(seed=78, count=12, half_moves=4)
        for mov in movs:
            S = FoamSum.from_movie(mov, P)
            for T in (S, act_sl2("h", P, S)):
                for gen in ("e", "h", "f"):
                    got = outcome(lambda: act_sl2(gen, P, T))
                    ref = outcome(lambda: oracle.sl2_reference(gen, P, T))
                    assert same_outcome(got, ref), (mov, gen)
        saddle = basic_open_movies(1, 2)["saddle"]
        with pytest.raises(TwoNotInvertible):
            act_sl2("f", P, saddle)

    def test_facet_of_thickness_N(self):
        # the outside block of a thickness-N facet is empty
        N = 3
        basic = basic_open_movies(N, 1)
        movs = [basic[k] for k in ("cup", "cap", "saddle", "decorate")]
        movs += [dotted_sphere(2, thickness=N)]
        movs += decorated_closed(seed=89, count=12, half_moves=3, max_thickness=N)
        for mov in movs:
            Pw = saddle_pack(N=N) if has_saddle(mov) else rich_pack(N=N)
            Ps = ActionParams(ring=QQ, N=N, t1=Fraction(1, 3), t2=2,
                              t3=None if has_saddle(mov) else Fraction(-1, 4),
                              spherical=not has_saddle(mov))
            Sw, Ss = FoamSum.from_movie(mov, Pw), FoamSum.from_movie(mov, Ps)
            for n in APPLICATOR_INDICES:
                ref = oracle.witt_reference(n, Pw, Sw)
                assert same_terms(act_witt(n, Pw, Sw), ref), (mov, n)
            for gen in ("e", "h", "f"):
                ref = oracle.sl2_reference(gen, Ps, Ss)
                assert same_terms(act_sl2(gen, Ps, Ss), ref), (mov, gen)


# ---------------------------------------------------------------------------
# Move images merged by dot list, built once per skeleton and operator
# ---------------------------------------------------------------------------


def torus(power=1):
    """cup, two saddles, cap on one thin facet, dotted ``p_1^power``: at
    N = 3 the move images of ``L_0..L_3``, ``h`` and ``f`` (t3 = 1/2) add
    up to 0 on every dot list, the dotless summand included."""
    b = MovieBuilder()
    c = b.cup(1)
    o1, o2 = b.saddle(c, c)
    o, _ = b.saddle(o1, o2)
    b.decorate(o, symmetric_basis("power_sum", power, ZZ, ("x1",)))
    b.cap(o)
    return b.movie()


def merge_cases(ring):
    """(Witt pack, sl2 pack, movie) over ``ring``: one movie per move kind,
    the torus, and closed decorated movies."""
    movs = list(basic_open_movies(1, 2).values()) + [torus(1), torus(2)]
    movs += decorated_closed(seed=71, count=12, half_moves=4)
    for mov in movs:
        sad = has_saddle(mov)
        Pw = ActionParams(
            ring=ring, N=3, s=Fraction(1, 4), nu1=WittSequence.linear(ring, Fraction(1, 2)),
            nu2=WittSequence.linear(ring, Fraction(-1, 3)),
            nu3=None if sad else WittSequence.linear(ring, 3), spherical=not sad,
        )
        Ps = ActionParams(ring=ring, N=3, t1=Fraction(1, 3), t2=Fraction(-2, 7),
                          t3=None if sad else Fraction(3, 4), spherical=not sad)
        yield Pw, Ps, mov


class TestMergedImages:
    @pytest.mark.parametrize("ring", [QQ, GF(5)])
    def test_operators_match_unmerged_reference(self, ring):
        kinds = set()
        for Pw, Ps, mov in merge_cases(ring):
            S = FoamSum.from_movie(mov, Pw)
            kinds |= {tr.kind for tr in S.skeleton.complex.traces}
            for n in INDICES:
                ref = oracle.witt_reference(n, Pw, S)
                assert same_terms(act_witt(n, Pw, S), ref), (mov, n)
            S = FoamSum.from_movie(mov, Ps)
            for gen in ("e", "h", "f"):
                ref = oracle.sl2_reference(gen, Ps, S)
                assert same_terms(act_sl2(gen, Ps, S), ref), (mov, gen)
        assert {"cup", "cap", "saddle", "digon_cup", "digon_cap", "zip", "unzip"} <= kinds

    @pytest.mark.parametrize("ring", [QQ, GF(5)])
    def test_block_images_match_per_move_reference(self, ring):
        def as_map(images):
            out = {dots: (type(w), w) for w, dots in images}
            assert len(out) == len(images)
            return out

        expanded = 0
        for Pw, Ps, mov in merge_cases(ring):
            skel = FoamSum.from_movie(mov, Pw).skeleton
            weights = {n: actions._weights(Pw, n) for n in range(-1, 7)}
            weights.update((g, actions._weights(Ps, g)) for g in ("e", "h", "f"))
            for name, w in weights.items():
                n, _ = actions.operator_index(name)
                ref = oracle.move_images(skel, n, w)
                assert as_map(actions._images(skel, n, w)) == as_map(ref), (mov, name)
                expanded += bool(ref)
        assert expanded
        # a cup and a cap on one facet with opposite weights: each move's
        # image is nonzero and their sum is empty
        b = MovieBuilder()
        b.cap(b.cup(1))
        skel = FoamSum.from_movie(b.movie(), ActionParams(ring=ring, N=3)).skeleton
        xyz = {"cup": (2, Fraction(-3, 7), 1), "cap": (-2, Fraction(3, 7), -1)}
        moves = [tr for tr in skel.complex.traces if tr.kind in xyz]
        for n in range(4):
            assert len(moves) == 2 and all(
                actions._block_image(ring, actions._blocks(skel, tr), n, xyz[tr.kind])
                for tr in moves
            )
            assert actions._images(skel, n, xyz.__getitem__) == []
            assert oracle.move_images(skel, n, xyz.__getitem__) == []

    def test_cancelling_move_images_are_dropped(self):
        Pw, Ps = saddle_pack(), ActionParams(ring=QQ, N=3, spherical=False)
        S = FoamSum.from_movie(torus(), Pw)
        skel = S.skeleton
        (f,) = skel.thickness
        moves = [tr for tr in skel.complex.traces if tr.kind != "decorate"]
        assert [tr.kind for tr in moves] == ["cup", "saddle", "saddle", "cap"]
        weights = {n: actions._weights(Pw, n) for n in (0, 1, 2, 3)}
        weights.update(h=actions._weights(Ps, "h"), f=actions._weights(Ps, "f"))
        for name, w in weights.items():
            n, _ = actions.operator_index(name)
            raw = [
                d for tr in moves
                for _, d in actions._block_image(skel.ring, actions._blocks(skel, tr), n, w(tr.kind))
            ]
            assert raw and actions._images(skel, n, w) == []
            if n == 0:
                assert raw == [()] * 4  # the one dotless summand per move
            if n == 1:
                assert ((f, 1, True),) in raw
        # only the decoration's derivation is left in the images
        for n in (0, 1, 2, 3):
            img = act_witt(n, Pw, S)
            assert not img.is_zero()
            assert same_terms(img, oracle.witt_reference(n, Pw, S))
        S = FoamSum.from_movie(torus(), Ps)
        for gen in ("h", "f"):
            assert same_terms(act_sl2(gen, Ps, S), oracle.sl2_reference(gen, Ps, S))

    def test_check_errors_keep_their_type_and_order(self):
        saddle = basic_open_movies(1, 2)["saddle"]
        nu3 = rich_pack()
        nu3_over_Z = ActionParams(ring=ZZ, N=3, nu3=WittSequence.linear(ZZ, 1))
        gf2 = ActionParams(ring=GF(2), N=3, t1=1, t2=1)
        # a saddle raises before 1/2 is looked for; on the torus the cup
        # comes first and looks for 1/2 after reading nu3(n)
        for P in (nu3, nu3_over_Z):
            for n, m in ((0, 1), (-1, 0), (1, 1), (-2, 0)):
                with pytest.raises(NonSphericalWithNu3):
                    commutator_check(n, m, P, saddle)
        with pytest.raises(TwoNotInvertible):
            commutator_check(0, 1, nu3_over_Z, torus())
        with pytest.raises(NonSphericalWithNu3):
            commutator_check(0, 1, nu3, torus())
        for n, m in ((0, -2), (-2, -1), (3, -2)):
            with pytest.raises(InputError):
                commutator_check(n, m, nu3, saddle)
        assert commutator_check(-1, -1, nu3, saddle).ok
        for mov in (saddle, torus()):
            with pytest.raises(TwoNotInvertible):
                commutator_check(0, 1, gf2, mov)
            with pytest.raises(TwoNotInvertible):
                sl2_relations_check(gf2, mov)
        # L_{n+m} is applied even when n = m scales it by 0: nu3(6) is out
        # of a table that ends at 5
        b = MovieBuilder()
        b.cap(b.cup(1))
        short = ActionParams(ring=QQ, N=3, nu3=WittSequence.linear(QQ, Fraction(1, 5), n_max=5))
        with pytest.raises(IndexOutOfRange):
            commutator_check(3, 3, short, b.movie())
        for n, m in ((2, 3), (0, 3)):
            assert commutator_check(n, m, short, b.movie()).ok


class TestImageReuse:
    """One check or iterate builds each operator's images once, and a check
    applies each operator to its input once."""

    @staticmethod
    def counted(monkeypatch):
        built = []
        images = actions._images

        def counting(skel, n, weights):
            built.append(n)
            return images(skel, n, weights)

        monkeypatch.setattr(actions, "_images", counting)
        return built

    @staticmethod
    def applied(monkeypatch):
        calls = []
        apply = actions._apply

        def counting(S, n, c, images, rules):
            calls.append(n)
            return apply(S, n, c, images, rules)

        monkeypatch.setattr(actions, "_apply", counting)
        return calls

    def test_commutator_check(self, monkeypatch):
        built, calls = self.counted(monkeypatch), self.applied(monkeypatch)
        P, mov = saddle_pack(), torus()
        count = {}
        for n in INDICES:
            for m in INDICES:
                built.clear()
                calls.clear()
                assert commutator_check(n, m, P, mov).ok
                assert len(built) == len(set(built)) <= (2 if n == m else 3), (n, m)
                count[n, m] = len(calls)
        for (n, m), k in count.items():
            if n == m:
                assert k == (2 if n <= 0 else 3), (n, m)
            elif len({n, m, n + m}) == 3:
                assert k == 5, (n, m)
            else:  # n + m is n or m: one of them is 0
                assert k == 4, (n, m)
        # the operators benchmark's 15 pairs, m >= n, per movie (74 before)
        assert sum(k for (n, m), k in count.items() if m >= n) == 59

    def test_sl2_relations_check(self, monkeypatch):
        built, calls = self.counted(monkeypatch), self.applied(monkeypatch)
        assert sl2_relations_check(sl2_from_witt(saddle_pack()), torus()).ok
        assert sorted(built) == [-1, 0, 1]
        assert len(calls) == 9

    def test_rules_built_once_per_check(self, monkeypatch):
        # each partition rule is computed at most once per argument tuple
        # within one check; the torus's move images cancel, and those of a
        # decorated closed movie with digons do not
        calls, dotted = {}, False
        for name in ("_dot_rule", "_derivation_rule"):
            rule = getattr(actions, name)

            def counting(*args, rule=rule, name=name):
                calls.setdefault(name, []).append(args)
                return rule(*args)

            monkeypatch.setattr(actions, name, counting)
        digons = next(
            m for m in decorated_closed(seed=71, count=12, half_moves=4)
            if {"digon_cup", "zip"} & {tr.kind for tr in compile_movie(m).traces}
        )
        P = saddle_pack()
        for mov in (torus(), digons):
            for check in (
                lambda: commutator_check(2, 3, P, mov),
                lambda: sl2_relations_check(sl2_from_witt(P), mov),
            ):
                calls.clear()
                assert check().ok
                assert calls["_derivation_rule"]
                for args in calls.values():
                    assert len(args) == len(set(args)), mov
                dotted |= "_dot_rule" in calls
        assert dotted

    def test_pdg_iterate(self, monkeypatch):
        built = self.counted(monkeypatch)
        R = GF(5)
        P = ActionParams(ring=R, N=3, t1=2, t2=4, t3=half_scalar(R), spherical=False)
        pdg_iterate(P, torus(2), 5)
        assert built == [1]


class TestChecksMatchReference:
    """Inside a structural check or an iterate every application reads the
    check's one rule table; each one's result equals the reference image of
    its input, term for term and in order."""

    WITT_PAIRS = [(n, m) for n in INDICES for m in INDICES if n <= m]  # the 15 pairs

    @staticmethod
    def hook(monkeypatch, reference, seen):
        """Wrap ``_apply`` to compare every result with ``reference(n, c, S)``
        and record which of the four cases it met."""
        apply = actions._apply
        add = polyring.CoefRing.add
        inside = []

        def counting_add(ring, a, b):
            s = add(ring, a, b)
            if inside and s == 0 and ring.p == 3:
                seen.add("cancelled mod 3")
            return s

        def checked(S, n, c, images, rules):
            inside.append(True)
            try:
                out = apply(S, n, c, images, rules)
            finally:
                inside.pop()
            assert same_terms(out, reference(n, c, S)), (n, c)
            seen.add("applied")
            skel = S.skeleton
            if any(skel.thickness[f] == skel.N for _, dots in images for f, _, _ in dots):
                seen.add("thickness N")
            if n == -1 and any(
                not any(new[0]) and not any(new[1])
                for _, decs in S.terms for _, shape in decs
                for new in _derivation_rule(shape, -1)
            ):
                seen.add("blanked")
            if n == 0 and any(dots == () for _, dots in images):
                seen.add("dot-free")
            return out

        monkeypatch.setattr(polyring.CoefRing, "add", counting_add)
        monkeypatch.setattr(actions, "_apply", checked)

    @staticmethod
    def movies(ring, N, seed):
        kw = dict(count=4, half_moves=4, max_thickness=N, ring=ring)
        return closed_corpus(seed=seed, **kw) + spherical_corpus(seed=seed, **kw)

    @pytest.mark.parametrize("ring,N", [(QQ, 2), (GF(3), 3), (GF(5), 4), (GF(3), 2)])
    def test_commutator_and_sl2_checks(self, monkeypatch, ring, N):
        seen = set()
        packs = {}

        def witt(n, c, S):
            return oracle.witt_reference(n, packs["witt"], S)

        def sl2(n, c, S):
            gen = {(-1, 1): "e", (0, 2): "h", (1, -1): "f"}[n, c]
            return oracle.sl2_reference(gen, packs["sl2"], S)

        for mov in self.movies(ring, N, seed=40 + N):
            sad = has_saddle(mov)
            packs["witt"] = ActionParams(
                ring=ring, N=N, s=Fraction(1, 4), nu1=WittSequence.linear(ring, Fraction(1, 2)),
                nu2=WittSequence.linear(ring, Fraction(-1, 4)),
                nu3=None if sad else WittSequence.linear(ring, Fraction(2, 7)),
                spherical=not sad,
            )
            packs["sl2"] = ActionParams(
                ring=ring, N=N, t1=Fraction(2, 7), t2=-2, t3=None if sad else Fraction(1, 4),
                spherical=not sad,
            )
            with monkeypatch.context() as m:
                self.hook(m, witt, seen)
                for n, m_ in self.WITT_PAIRS:
                    assert commutator_check(n, m_, packs["witt"], mov).ok, (mov, n, m_)
            with monkeypatch.context() as m:
                self.hook(m, sl2, seen)
                assert sl2_relations_check(packs["sl2"], mov).ok, mov
        want = {"thickness N", "blanked", "dot-free"}
        if ring.p == 3:
            want.add("cancelled mod 3")
        assert want <= seen

    @pytest.mark.parametrize("p,N", [(3, 3), (5, 2)])
    def test_pdg_iterate(self, monkeypatch, p, N):
        R = GF(p)
        P = ActionParams(ring=R, N=N, t1=2, t2=p - 1, t3=half_scalar(R), spherical=False)
        seen = set()
        self.hook(monkeypatch, lambda n, c, S: oracle.sl2_reference("f", P, S), seen)
        for mov in self.movies(R, N, seed=50 + p):
            assert pdg_iterate(P, mov, p).is_zero(), mov
        assert "applied" in seen


class TestPdgIterate:
    def test_iterate_is_nested_differential(self):
        R = GF(5)
        P = ActionParams(ring=R, N=3, t1=2, t2=4, t3=half_scalar(R), spherical=False)
        for mov in [torus(2)] + decorated_closed(seed=89, count=8, half_moves=3):
            S = FoamSum.from_movie(mov, P)
            nested = S
            for k in range(R.p + 1):
                assert same_terms(pdg_iterate(P, S, k), nested), (mov, k)
                nested = act_pdg(P, nested)

    def test_negative_count_rejected(self):
        R = GF(5)
        P = ActionParams(ring=R, N=3, t1=2, t2=4)
        with pytest.raises(InputError):
            pdg_iterate(P, dotted_sphere(1), -1)

    def test_checks_run_before_the_first_application(self):
        mov = dotted_sphere(1)
        assert not pdg_iterate(ActionParams(ring=QQ, N=2), mov, 0).is_zero()
        with pytest.raises(WrongRing):
            pdg_iterate(ActionParams(ring=QQ, N=2), mov, 1)
        gf2 = ActionParams(ring=GF(2), N=3, t1=1, t2=1, t3=1)
        with pytest.raises(CharTwoNonSpherical):
            pdg_iterate(gf2, torus(), 2)


class TestEntryPoints:
    """``act_witt``, ``act_sl2``, ``act_pdg`` and ``pdg_iterate`` give what
    ``apply_operator`` gives, sums and errors alike."""

    @staticmethod
    def movies():
        kw = dict(count=6, half_moves=4, max_thickness=3)
        return closed_corpus(seed=61, **kw) + spherical_corpus(seed=61, **kw)

    def test_named_operators_equal_apply_operator(self):
        saddles = nonzero = 0
        for mov in self.movies():
            sad = has_saddle(mov)
            saddles += sad
            Pw = saddle_pack() if sad else rich_pack()
            Ps = sl2_from_witt(Pw)
            Pd = ActionParams(ring=GF(5), N=3, t1=2, t2=4, spherical=not sad)
            for n in range(-1, 4):
                S = act_witt(n, Pw, mov)
                assert same_terms(S, apply_operator(f"L:{n}", Pw, mov)), (mov, n)
                nonzero += not S.is_zero()
            for gen in ("e", "h", "f"):
                assert same_terms(act_sl2(gen, Ps, mov), apply_operator(gen, Ps, mov)), mov
            assert same_terms(act_pdg(Pd, mov), apply_operator("d", Pd, mov)), mov
            nested = FoamSum.from_movie(mov, Pd)
            for k in range(4):
                assert same_terms(pdg_iterate(Pd, mov, k), nested), (mov, k)
                nested = apply_operator("d", Pd, nested)
        assert saddles and nonzero

    def test_errors_keep_their_type_and_text(self):
        saddled = next(m for m in self.movies() if has_saddle(m))
        sphere = dotted_sphere(1)
        over_N2 = FoamSum.from_movie(sphere, ActionParams(ring=QQ, N=2))
        gf2 = ActionParams(ring=GF(2), N=3, t1=1, t2=1)
        QQ3 = ActionParams(ring=QQ, N=3)
        cases = [
            (lambda: act_witt(-2, rich_pack(), sphere),
             lambda: apply_operator("L:-2", rich_pack(), sphere),
             InputError, "operator index must be at least -1"),
            (lambda: act_sl2("d", ActionParams(ring=GF(5), N=3), sphere), None,
             InputError, "unknown sl2 generator 'd'"),
            (lambda: act_pdg(QQ3, sphere),
             lambda: apply_operator("d", QQ3, sphere),
             WrongRing, "the p-DG differential is defined over prime fields"),
            (lambda: act_pdg(gf2, saddled),
             lambda: apply_operator("d", gf2, saddled),
             CharTwoNonSpherical, "the differential needs p > 2 on movies with saddles"),
            (lambda: act_witt(1, QQ3, over_N2),
             lambda: apply_operator("L:1", QQ3, over_N2),
             InputError, "formal sum over Q with N=2, pack over Q with N=3"),
        ]
        for named, dispatched, error, text in cases:
            for call in (named, dispatched):
                if call is None:
                    continue
                with pytest.raises(error) as info:
                    call()
                assert type(info.value) is error and str(info.value) == text
        for P, mov, error in ((QQ3, sphere, WrongRing), (gf2, saddled, CharTwoNonSpherical)):
            with pytest.raises(error):
                pdg_iterate(P, mov, 1)


class TestChecksCanFail:
    """With wrong weights for one operator the structural checks report
    the defect instead of passing."""

    def test_wrong_weights_give_a_defect(self, monkeypatch):
        weights = actions._weights

        def wrong(params, name):
            w = weights(params, name)
            if name not in (2, "h"):
                return w
            return lambda kind: (w(kind)[0] + 1,) + w(kind)[1:]

        monkeypatch.setattr(actions, "_weights", wrong)
        P, mov = rich_pack(), dotted_sphere(2)
        rep = commutator_check(1, 2, P, mov)
        assert not rep.ok and rep.detail.startswith("[L_1, L_2] defect: ")
        rep = sl2_relations_check(sl2_from_witt(P), mov)
        assert not rep.ok and rep.detail.startswith("[e,f]-h defect: ")

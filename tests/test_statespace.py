"""Tests for web state spaces: Gram matrices, graded ranks, kernel
membership, induced operator matrices and the local rank relations."""

import hashlib
import itertools
import math
import random
import types
from functools import partial
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foamlab.actions import (
    ActionParams,
    FoamSum,
    act_sl2,
    act_witt,
    apply_operator,
    sl2_from_witt,
)
from foamlab import actions, dsl, foamcore, foameval, polyring, statespace
from foamlab.errors import (
    DivisionNotExact,
    InputError,
    NotInSymmetricSubring,
    NotWellDefined,
    PatternMismatch,
    RankUnstable,
    WrongRing,
)
from foamlab.foameval import evaluate
from foamlab.foamcore import Movie, MovieBuilder, _strip_decorations, compose, mirror
from foamlab.polyring import (
    GF,
    ElementaryBasis,
    MultiPoly,
    QQ,
    SymPoly,
    WittSequence,
    ZZ,
    elementary,
    kill_equivariance,
    power_sum,
    qbinom_laurent,
    xvars,
)
from foamlab.statespace import (
    WEB_FAMILIES,
    box_partitions,
    circle_presentation,
    chain_presentation,
    elementary_product,
    gram_matrix,
    graded_rank,
    induced_action,
    is_zero_in_statespace,
    laurent_add,
    laurent_mul,
    mat_add,
    mat_is_zero,
    mat_mul,
    mat_scale,
    mat_sub,
    moy_check,
    necklace_presentation,
    operator_commutator,
    operator_compose,
    operator_power,
    pair_movies,
    presentation,
    quantum_integer,
    scalar_matrix,
    theta_presentation,
    zipped_presentation,
)

import oracle


def decorated_cup(dec=None, thickness=1, ring=ZZ):
    b = MovieBuilder()
    c = b.cup(thickness)
    if dec is not None:
        b.decorate(c, dec)
    return b.movie()


def p1_poly(ring=ZZ):
    return SymPoly(power_sum(ring, ("x1",), 1), (1,))


def p1sq_poly(ring=ZZ):
    return SymPoly(power_sum(ring, ("x1",), 1) ** 2, (1,))


def rich_pack(N):
    return ActionParams(
        ring=QQ,
        N=N,
        s=Fraction(1, 4),
        nu1=WittSequence.linear(QQ, Fraction(1, 2)),
        nu2=WittSequence.linear(QQ, Fraction(-1, 3)),
        nu3=WittSequence.linear(QQ, Fraction(1, 5)),
    )


class TestPresentations:
    def test_box_partitions_count(self):
        # partitions in an r x c box are counted by a Gaussian binomial at q=1
        from math import comb

        assert len(box_partitions(2, 2)) == comb(4, 2)
        assert len(box_partitions(1, 3)) == 4
        assert box_partitions(0, 5) == [()]

    def test_circle_sizes(self):
        from math import comb

        for N, a in [(2, 1), (3, 1), (3, 2), (4, 2)]:
            assert len(circle_presentation(a, N)) == comb(N, a)

    def test_circle_degrees_are_balanced(self):
        p = circle_presentation(2, 4)
        assert sorted(p.degrees) == [-4, -2, 0, 0, 2, 4]

    def test_thickness_out_of_range(self):
        with pytest.raises(InputError):
            circle_presentation(3, 2)

    def test_mismatched_boundaries_rejected(self):
        with pytest.raises(InputError):
            presentation([decorated_cup(), decorated_cup(thickness=2)], 3)

    def test_every_movie_must_start_at_the_empty_web(self):
        cup = decorated_cup()
        standing = Movie(cup.output_web, ())
        for movies in ([standing], [standing, cup], [cup, standing]):
            with pytest.raises(InputError, match="must start at the empty web"):
                presentation(movies, 3)

    def test_errors_keep_their_order(self):
        # a movie off the empty web with another boundary: each movie's
        # boundary is checked before its input web, in movie order
        cup = decorated_cup()
        off = Movie(decorated_cup(thickness=2).output_web, ())
        with pytest.raises(InputError, match="do not share a boundary web"):
            presentation([cup, off], 3)
        with pytest.raises(InputError, match="must start at the empty web"):
            presentation([off, cup], 3)
        # a decoration on a missing edge fails where the decorated movie
        # would, before a later bad move and before the boundary checks
        dot = foamcore.Decorate("nope", p1_poly())
        for tail in ((), (foamcore.Cap("gone"),)):
            bad = Movie(cup.input_web, cup.moves + (dot,) + tail)
            for movies in ([bad], [cup, bad], [off, bad]):
                with pytest.raises(PatternMismatch, match="edge nope not in slice"):
                    presentation(movies, 3)

    def test_reads_each_output_web_once(self, monkeypatch):
        # the decorated movies are never replayed; their one undecorated
        # movie is replayed four times however many movies share it: for
        # the output web, for its degree, and by the offset's mirror and
        # compose
        sliced = []
        real = Movie.slices
        monkeypatch.setattr(Movie, "slices", lambda mov: sliced.append(mov) or real(mov))
        decs = [None, p1_poly(), p1sq_poly()]
        for n in (1, 2, 3):
            movs = [decorated_cup(d) for d in decs[:n]]
            sliced.clear()
            gens = presentation(movs, 2)
            (bare,) = {id(b): b for b, _ in gens.split}.values()
            assert not any(m is mov for m in movs for mov in sliced)
            assert sum(mov is bare for mov in sliced) == 4

    def test_elementary_product_blocks(self):
        dec = elementary_product(ZZ, 2, (2, 1))
        assert dec.blocks == (2,)
        assert dec.poly.qdegree() == 6


def _small_family_presentations(ring):
    """Every :data:`WEB_FAMILIES` presentation with N <= 4, on both bases."""
    out = []
    for name, (arity, build) in sorted(WEB_FAMILIES.items()):
        for N in range(1, 5):
            for args in itertools.product(range(N + 1), repeat=arity):
                for base in ("equivariant", "phi0"):
                    try:
                        out.append(build(*args, N, ring, base))
                    except InputError:
                        continue
    return out


class TestGramMatrix:
    def test_circle_1_N2_against_oracle(self):
        G = gram_matrix(circle_presentation(1, 2))
        want = oracle.sphere_gram(2, [0, 1])
        for i in range(2):
            for j in range(2):
                got = {e: c for e, c in G.entries[i][j].terms.items()}
                assert got == {e: int(c) for e, c in want[i][j].items()}

    def test_circle_1_N2_worked_values(self):
        G = gram_matrix(circle_presentation(1, 2))
        vs = xvars(2)
        e1 = elementary(ZZ, vs, 1)
        assert G.entries[0][0].is_zero()
        assert G.entries[0][1] == MultiPoly.const(ZZ, vs, -1)
        assert G.entries[1][0] == MultiPoly.const(ZZ, vs, -1)
        assert G.entries[1][1] == -e1

    def test_entries_homogeneous_of_summed_degree(self):
        for p in (circle_presentation(2, 3), theta_presentation(1, 1, 3)):
            G = gram_matrix(p)
            for i, row in enumerate(G.entries):
                for j, e in enumerate(row):
                    if not e.is_zero():
                        assert e.is_homogeneous()
                        assert e.qdegree() == G.row_degrees[i] + G.row_degrees[j]

    def test_composes_each_skeleton_with_each_generator_once(self, monkeypatch):
        # one composite per (skeleton, undecorated generator) and one mirror
        # per undecorated generator: circle(2,4) has one undecorated movie,
        # the two-shape family two
        calls = {"_composite": 0, "mirror": 0}
        for name in calls:
            real = getattr(statespace, name)

            def counting(*a, name=name, real=real):
                calls[name] += 1
                return real(*a)

            monkeypatch.setattr(statespace, name, counting)
        for gens, want in ((circle_presentation(2, 4), (1, 1)), (two_shape_presentation(), (4, 2))):
            calls.update(dict.fromkeys(calls, 0))
            gram_matrix(gens)
            assert (calls["_composite"], calls["mirror"]) == want

    def test_strips_each_distinct_movie_once(self, monkeypatch):
        # the presentation keeps its split, so the pairings strip nothing;
        # the family evaluation gets one undecorated composite and each
        # generator's placed decorations as one object, placed once
        gens = circle_presentation(2, 4)
        calls = {"_strip_decorations": 0, "_placed_on": 0}
        for module, name in ((foamcore, "_strip_decorations"), (foameval, "_placed_on")):
            real = getattr(module, name)

            def counting(*a, name=name, real=real):
                calls[name] += 1
                return real(*a)

            monkeypatch.setattr(module, name, counting)
        foams = []
        real_family = statespace._family_values

        def family(given, *a):
            foams.extend(given)
            return real_family(given, *a)

        monkeypatch.setattr(statespace, "_family_values", family)
        gram_matrix(gens)
        bare = {id(b) for b, _, _ in foams}
        decorations = {id(d) for _, d, _ in foams}
        assert (len(foams), len(bare), len(decorations)) == (36, 1, 6)
        assert calls == {"_strip_decorations": 0, "_placed_on": 6}

    def test_off_band_entries_have_no_constant_term(self):
        # the fact the band rank rests on: a pairing is homogeneous of degree
        # deg_i + deg_j, so off the band deg_i + deg_j = 0 it has no constant
        # term; checked on every family with N <= 4, on both bases
        for gens in _small_family_presentations(ZZ):
            G = gram_matrix(gens)
            for i, row in enumerate(G.e_entries):
                for j, e in enumerate(row):
                    if gens.degrees[i] + gens.degrees[j] != 0:
                        assert e.constant_value() == 0

    def test_phi0_entries_are_constants(self):
        G = gram_matrix(circle_presentation(1, 3, ZZ, "phi0"))
        assert all(e.is_constant() for row in G.entries for e in row)


def _reference_rank(gens):
    """``oracle.rank_reference`` on the whole Gram matrix of ``gens``."""
    return oracle.rank_reference(gram_matrix(gens), random.Random(0), statespace._RANK_PRIME)


class TestGradedRank:
    @pytest.mark.parametrize("N,a", [(2, 1), (3, 1), (3, 2), (4, 2)])
    def test_circle_ranks(self, N, a):
        assert graded_rank(circle_presentation(a, N)) == qbinom_laurent(N, a)

    def test_full_thickness_circle_is_trivial(self):
        assert graded_rank(circle_presentation(3, 3)) == {0: 1}

    def test_rank_at_q_one_is_ungraded_rank(self):
        assert sum(graded_rank(circle_presentation(2, 4)).values()) == 6

    def test_base_change_compatibility(self):
        for N, a in [(2, 1), (3, 1), (3, 2)]:
            eq = graded_rank(circle_presentation(a, N))
            ph = graded_rank(circle_presentation(a, N, ZZ, "phi0"))
            assert eq == ph

    def test_rank_drops_for_dependent_family(self):
        movs = [
            decorated_cup(),
            decorated_cup(p1_poly()),
            decorated_cup(p1sq_poly()),
        ]
        assert sum(graded_rank(presentation(movs, 2)).values()) == 2

    def test_prime_field_coefficients_rejected(self):
        with pytest.raises(WrongRing):
            graded_rank(circle_presentation(1, 2, GF(5)))

    @staticmethod
    def dependent_presentation():
        """Three generators of rank 2: their ``phi0`` matrix is singular, so
        the rank is decided by random points."""
        movs = [decorated_cup(), decorated_cup(p1_poly()), decorated_cup(p1sq_poly())]
        return presentation(movs, 2)

    def test_trials_is_the_number_of_specializations(self, monkeypatch):
        # one elimination at the zero point, then one per trial
        gens = self.dependent_presentation()
        calls = []
        real = statespace._rank_once

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(statespace, "_rank_once", counting)
        assert sum(graded_rank(gens, trials=1).values()) == 2
        assert len(calls) == 2
        graded_rank(gens, trials=4)
        assert len(calls) == 7

    def test_disagreeing_specializations_raise(self, monkeypatch):
        gens = self.dependent_presentation()
        real = statespace._rank_once
        answers = itertools.cycle([{0: 2}, {0: 1}])
        calls = []

        def disagreeing(*args):
            calls.append(args)
            return real(*args) if len(calls) == 1 else next(answers)

        monkeypatch.setattr(statespace, "_rank_once", disagreeing)
        with pytest.raises(RankUnstable):
            graded_rank(gens, trials=2)

    def test_zero_point_decides_the_standard_families(self, monkeypatch):
        # every family with N <= 4 on both bases, and the rank bench's five
        # relations: M_0 has full rank, so no random point is drawn
        cases = [(gens, _reference_rank(gens)) for gens in _small_family_presentations(ZZ)]
        assert len(cases) == 86

        def refuse(*args):
            raise AssertionError("a random point was drawn")

        monkeypatch.setattr(statespace, "random", types.SimpleNamespace(Random=refuse))
        for gens, want in cases:
            assert graded_rank(gens) == want
        for relation, N, abc in (
            ("circle", 5, (2,)), ("digon", 4, (1, 1)), ("bad_digon", 4, (1, 1)),
            ("square", 3, ()), ("assoc", 3, (1, 1, 1)),
        ):
            assert moy_check(relation, N, *abc, seed=901).ok

    def test_denominator_vanishing_mod_p_is_a_typed_error(self):
        G = gram_matrix(circle_presentation(1, 2, QQ))
        evars = ElementaryBasis(xvars(2)).e_names
        bad = MultiPoly.const(QQ, evars, Fraction(1, statespace._RANK_PRIME))
        rows = ((bad,) + G.e_entries[0][1:],) + G.e_entries[1:]
        with pytest.raises(WrongRing):
            statespace._rank_at(rows, G.row_degrees, [0, 0])

    def test_rank_path_expands_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("from_e called on the rank path")

        monkeypatch.setattr(ElementaryBasis, "from_e", refuse)
        assert moy_check("circle", 4, a=2).ok
        gens = theta_presentation(1, 1, 3)
        assert graded_rank(gens) == laurent_mul(qbinom_laurent(2, 1), qbinom_laurent(3, 2))

    def test_entries_are_the_stored_values_expanded(self):
        basis = ElementaryBasis(xvars(3))
        for base in ("equivariant", "phi0"):
            G = gram_matrix(theta_presentation(1, 1, 3, ZZ, base))
            stored = [e for row in G.e_entries for e in row]
            assert all(e.vars == basis.e_names for e in stored)
            assert G.entries == tuple(
                tuple(basis.from_e(e) for e in row) for row in G.e_entries
            )
            if base == "phi0":
                # constants over E1..EN, expanded to the same constants
                # over X1..XN
                assert all(e.is_constant() for e in stored)
                assert [e.constant_value() for row in G.entries for e in row] == [
                    e.constant_value() for e in stored
                ]


def _standard_presentations():
    """The generator families of the CLI at N <= 5: every circle, theta and
    zipped web and the thin chains; the four-vertex ladder up to N = 4
    (at N = 5 its 40 generators take seconds to pair, so it has a test of its
    own)."""
    out = []
    for N in range(1, 6):
        out += [(f"circle({a},{N})", partial(circle_presentation, a, N))
                for a in range(1, N + 1)]
        for a, b in itertools.product(range(1, N), repeat=2):
            if a + b <= N:
                out.append((f"theta({a},{b},{N})", partial(theta_presentation, a, b, N)))
                out.append((f"zipped({a},{b},{N})", partial(zipped_presentation, a, b, N)))
    out += [(f"necklace({N})", partial(necklace_presentation, N)) for N in range(2, 5)]
    out += [
        (f"{order}(1,1,1,{N})", partial(chain_presentation, order, 1, 1, 1, N))
        for order in ("left", "right")
        for N in (3, 4, 5)
    ]
    return out


def _polys(decorations):
    """The decoration polynomials of split decorations, in order."""
    return [d.poly for _, _, d in decorations]


def _column_decorations(gens):
    """Each generator's decoration polynomials, which tell them apart."""
    columns = [_polys(decorations) for _, decorations in gens.split]
    assert all(columns.count(c) == 1 for c in columns)
    return columns


class TestPresentationRank:
    """``graded_rank`` pairs the degree-0 band first and falls back to the
    whole Gram matrix only when its ``phi0`` matrix is singular."""

    @pytest.mark.parametrize("ring", [ZZ, QQ], ids=["ZZ", "QQ"])
    def test_equals_the_gram_rank(self, ring):
        cases = _small_family_presentations(ring)
        assert len(cases) == 86
        for gens in cases:
            assert graded_rank(gens) == _reference_rank(gens)

    def test_moy_check_pairs_exactly_the_band(self, monkeypatch):
        # a column is known by the decorations placed on its composite, a
        # row by its placed terms, shared by its pairs, in row order
        built = []
        real_build = WEB_FAMILIES["circle"][1]
        monkeypatch.setitem(
            WEB_FAMILIES, "circle",
            (1, lambda *a: built.append(real_build(*a)) or built[-1]),
        )
        handed = []
        real_family = statespace._family_values
        monkeypatch.setattr(
            statespace, "_family_values",
            lambda foams, *a: handed.extend(foams) or real_family(foams, *a),
        )
        assert moy_check("circle", 4, a=2).ok
        (gens,) = built
        columns = _column_decorations(gens)
        rows = list({id(terms): None for _, _, terms in handed})
        pairs = [
            (rows.index(id(terms)), columns.index(_polys(decorations)))
            for _, decorations, terms in handed
        ]
        d = gens.degrees
        band = [(i, j) for i in range(6) for j in range(6) if d[i] + d[j] == 0]
        assert len(band) == 8
        assert pairs == band

    def test_singular_band_falls_back_to_the_gram_matrix(self, monkeypatch):
        # the zero point on the band, then one elimination per trial of the
        # whole Gram matrix
        movs = [decorated_cup(), decorated_cup(p1_poly()), decorated_cup(p1sq_poly())]
        gens = presentation(movs, 2)
        calls = []
        real = statespace._rank_once
        monkeypatch.setattr(
            statespace, "_rank_once", lambda *a: calls.append(a) or real(*a)
        )
        for trials in (1, 4):
            calls.clear()
            rank = graded_rank(gens, trials=trials)
            assert sum(rank.values()) == 2
            assert len(calls) == 1 + trials
            assert rank == _reference_rank(gens)

    def test_singular_band_pairs_each_pair_once(self, monkeypatch):
        # the band, then only the pairs off it: each row (by its placed
        # terms) meets each generator (by the decorations placed on its
        # composite) exactly once
        movs = [decorated_cup(), decorated_cup(p1_poly()), decorated_cup(p1sq_poly())]
        gens = presentation(movs, 2)
        columns = _column_decorations(gens)
        handed = []
        real_family = statespace._family_values
        monkeypatch.setattr(
            statespace, "_family_values",
            lambda foams, *a: handed.append(list(foams)) or real_family(foams, *a),
        )
        rank = graded_rank(gens)
        assert rank == _reference_rank(gens) and sum(rank.values()) == 2
        band, off = handed[:2]
        pairs = [
            (tuple(terms), columns.index(_polys(decorations)))
            for _, decorations, terms in band + off
        ]
        assert len(band) == 2 and len(pairs) == 9 and len(set(pairs)) == 9

    def test_prime_field_fails_before_any_pairing(self, monkeypatch):
        def no_pairing(*args):
            raise AssertionError("pairing work started")

        monkeypatch.setattr(statespace, "_family_values", no_pairing)
        with pytest.raises(WrongRing, match="over Z or Q coefficients"):
            graded_rank(circle_presentation(1, 2, GF(5)))
        for ring in (ZZ, GF(5)):
            # trials is checked before the ring
            with pytest.raises(InputError, match="at least one specialization"):
                graded_rank(circle_presentation(1, 2, ring), trials=0)


class TestRankAgainstPigmentBasis:
    """``graded_rank`` of a presentation, which reads its pairings in
    ``e_1..e_N``, against ``oracle.rank_reference`` on the entries of its
    Gram matrix in ``X1..XN``."""

    @pytest.mark.parametrize("base", ["equivariant", "phi0"])
    @pytest.mark.parametrize(
        "build", [b for _, b in _standard_presentations()],
        ids=[name for name, _ in _standard_presentations()],
    )
    def test_standard_presentations(self, build, base):
        gens = build(ZZ, base)
        assert graded_rank(gens) == _reference_rank(gens)

    def test_necklace_at_five(self):
        # one base: phi0 keeps the constant terms of these same pairings
        gens = necklace_presentation(5, ZZ)
        assert graded_rank(gens) == _reference_rank(gens)

    def test_dependent_family(self):
        movs = [decorated_cup(), decorated_cup(p1_poly()), decorated_cup(p1sq_poly())]
        for base in ("equivariant", "phi0"):
            gens = presentation(movs, 2, ZZ, base)
            want = _reference_rank(gens)
            assert graded_rank(gens) == want
            assert sum(want.values()) == 2


class TestSpecialize:
    @given(
        st.sampled_from([ZZ, QQ]),
        st.dictionaries(
            st.tuples(*[st.integers(0, 12)] * 3),
            st.fractions(-10**12, 10**12, max_denominator=10**6),
            max_size=8,
        ),
        st.lists(st.integers(1, statespace._RANK_PRIME - 1), min_size=3, max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_evaluating_then_reducing(self, ring, terms, point):
        if ring == ZZ:
            terms = {e: int(c) for e, c in terms.items()}
        entry = MultiPoly(ring, xvars(3), terms)
        values = dict(zip(xvars(3), point))
        p = statespace._RANK_PRIME
        assert statespace._specialize(entry, values, p) == oracle.specialize_reference(
            entry, values, p
        )

    def test_vanishing_denominator_is_a_typed_error(self):
        half = MultiPoly.const(QQ, xvars(2), Fraction(1, 5))
        with pytest.raises(WrongRing):
            statespace._specialize(half, {"X1": 1, "X2": 2}, 5)
        with pytest.raises(WrongRing):
            oracle.specialize_reference(half, {"X1": 1, "X2": 2}, 5)


class TestIsZero:
    def test_dependent_combination_is_zero(self):
        gens = circle_presentation(1, 2)
        vs = xvars(2)
        v = [
            (MultiPoly.const(ZZ, vs, 1), decorated_cup(p1sq_poly())),
            (-elementary(ZZ, vs, 1), decorated_cup(p1_poly())),
            (elementary(ZZ, vs, 2), decorated_cup()),
        ]
        assert is_zero_in_statespace(v, gens)

    def test_single_cup_is_not_zero(self):
        gens = circle_presentation(1, 2)
        assert not is_zero_in_statespace([(1, decorated_cup())], gens)

    def test_empty_sum_is_zero(self):
        gens = circle_presentation(1, 2)
        assert is_zero_in_statespace([], gens)

    def test_sum_over_another_ring_or_n_rejected(self):
        gens = circle_presentation(1, 2)
        for pack in (ActionParams(ring=ZZ, N=3), ActionParams(ring=QQ, N=2)):
            S = FoamSum.from_movie(decorated_cup(), pack)
            with pytest.raises(InputError):
                is_zero_in_statespace(S, gens)

    def test_foamsum_input(self):
        gens = circle_presentation(1, 2)
        P = ActionParams(ring=ZZ, N=2)
        S = FoamSum.from_movie(decorated_cup(), P)
        assert is_zero_in_statespace(S - S, gens)
        assert not is_zero_in_statespace(S, gens)

    @pytest.mark.parametrize(
        "N,var", [(2, "Y1"), (2, "X3")], ids=["foreign_name", "beyond_N"]
    )
    def test_coefficient_outside_the_alphabet_is_input_error(self, N, var):
        gens = circle_presentation(1, N)
        coef = MultiPoly.var(ZZ, (var,), var)
        with pytest.raises(InputError, match="X1"):
            is_zero_in_statespace([(coef, decorated_cup())], gens)

    @given(st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=20, deadline=None)
    def test_nondegenerate_family_has_no_scalar_kernel(self, c0, c1):
        gens = circle_presentation(1, 2)
        v = [(c0, gens.movies[0]), (c1, gens.movies[1])]
        assert is_zero_in_statespace(v, gens) == (c0 == 0 and c1 == 0)


def phi0_zero_reference(v, gens):
    """``is_zero_in_statespace`` on ``phi0`` by the symmetric base change: the
    row summed in ``X1..XN`` from :func:`pair_movies`, each entry sent
    through ``kill_equivariance``."""
    vs = xvars(gens.N)
    row = [MultiPoly.zero(gens.ring, vs) for _ in gens.movies]
    for coef, mov in v:
        c = coef.extend(vs) if isinstance(coef, MultiPoly) else coef
        row = [
            e + pair_movies(mov, G, gens.N, gens.ring) * c
            for e, G in zip(row, gens.movies)
        ]
    return all(kill_equivariance(e) == 0 for e in row)


def phi0_membership_cases():
    """(presentation, combination, expected) on the two ``phi0`` circles, as
    ``pytest.param`` with the case name as id."""
    one, two = (circle_presentation(a, N, ZZ, "phi0") for a, N in [(1, 2), (2, 3)])
    e1, e2 = (elementary(ZZ, xvars(2), k) for k in (1, 2))
    m0, m1 = one.movies
    dependent = [
        (1, decorated_cup(p1sq_poly())),
        (-e1, decorated_cup(p1_poly())),
        (e2, decorated_cup()),
    ]
    E1, E2 = (elementary(ZZ, xvars(3), k) for k in (1, 2))
    t0, t1, t2 = two.movies
    cases = [
        ("circle(1,2) cup", one, [(1, m0)], False),
        ("circle(1,2) zero scalars", one, [(0, m0), (0, m1)], True),
        ("circle(1,2) two dots", one, [(3, decorated_cup(p1sq_poly()))], True),
        ("circle(1,2) e1 cup", one, [(e1, m0)], True),
        ("circle(1,2) e2 dotted cup", one, [(e2, m1)], True),
        ("circle(1,2) e1 dotted cup and cup", one, [(e1, m1), (1, m0)], False),
        ("circle(1,2) dependent", one, dependent, True),
        ("circle(2,3) scalars", two, [(1, t0), (-2, t2)], False),
        ("circle(2,3) top", two, [(5, t2)], False),
        ("circle(2,3) e1 e2", two, [(E1, t0), (E2, t1)], True),
        ("circle(2,3) e1 and scalar", two, [(E1, t1), (1, t0)], False),
    ]
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


class TestIsZeroOnPhi0:
    """Kernel membership on the ``phi0`` base against the base change
    ``kill_equivariance`` of the row in ``X1..XN``."""

    @pytest.mark.parametrize("gens,v,expected", phi0_membership_cases())
    def test_agrees_with_the_base_change(self, gens, v, expected):
        assert phi0_zero_reference(v, gens) == expected
        assert is_zero_in_statespace(v, gens) == expected

    def test_non_symmetric_coefficient_reads_the_constant_term(self):
        # X_i -> 0 is the one ring map R[X1..XN] -> R killing every e_k, so a
        # row outside the symmetric subring is read by its constant terms
        gens = circle_presentation(1, 2, ZZ, "phi0")
        X1 = MultiPoly.var(ZZ, xvars(2), "X1")
        cup = gens.movies[0]
        with pytest.raises(NotInSymmetricSubring):
            phi0_zero_reference([(X1, cup)], gens)
        assert is_zero_in_statespace([(X1, cup)], gens)
        assert not is_zero_in_statespace([(X1, cup), (1, cup)], gens)


class TestInducedAction:
    @pytest.mark.parametrize("N", [2, 3])
    def test_sl2_matrix_relations(self, N):
        P = sl2_from_witt(rich_pack(N))
        gens = circle_presentation(1, N, QQ)
        E = induced_action("e", P, gens)
        H = induced_action("h", P, gens)
        F = induced_action("f", P, gens)
        assert mat_is_zero(mat_sub(operator_commutator(E, F), H.matrix))
        assert mat_is_zero(mat_sub(operator_commutator(H, E), mat_scale(E.matrix, 2)))
        assert mat_is_zero(mat_sub(operator_commutator(H, F), mat_scale(F.matrix, -2)))

    def test_sl2_matrix_relations_over_Z(self):
        # integral parameters, spherical generators: no division by 2 anywhere
        P = ActionParams(ring=ZZ, N=3, t1=1, t2=-2, t3=0)
        gens = circle_presentation(1, 3, ZZ)
        E = induced_action("e", P, gens)
        H = induced_action("h", P, gens)
        F = induced_action("f", P, gens)
        assert mat_is_zero(mat_sub(operator_commutator(E, F), H.matrix))
        assert mat_is_zero(mat_sub(operator_commutator(H, E), mat_scale(E.matrix, 2)))
        assert mat_is_zero(mat_sub(operator_commutator(H, F), mat_scale(F.matrix, -2)))

    def test_h_is_diagonal_with_degree_eigenvalues(self):
        P = ActionParams(ring=ZZ, N=3, t1=1, t2=0, t3=0)
        gens = circle_presentation(1, 3, ZZ)
        H = induced_action("h", P, gens)
        for i in range(3):
            for j in range(3):
                if i == j:
                    assert H.matrix[i][j] == MultiPoly.const(
                        ZZ, xvars(3), -gens.degrees[i]
                    )
                else:
                    assert H.matrix[i][j].is_zero()

    def test_pdg_matrix_frozen_value(self):
        ring = GF(3)
        P = ActionParams(ring=ring, N=2, t1=1, t2=2, t3=0)
        gens = circle_presentation(1, 2, ring)
        D = induced_action("d", P, gens)
        got = scalar_matrix(D.matrix)
        assert got == [[0, 0], [2, 0]]

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("N,a", [(2, 1), (3, 1), (4, 2)])
    @pytest.mark.parametrize("base", ["equivariant", "phi0"])
    def test_pdg_nilpotence(self, p, N, a, base):
        ring = GF(p)
        P = ActionParams(ring=ring, N=N, t1=1, t2=2 % p, t3=0)
        gens = circle_presentation(a, N, ring, base)
        D = induced_action("d", P, gens)
        assert mat_is_zero(operator_power(D, p))

    def test_degenerate_family_certificate(self):
        movs = [
            decorated_cup(),
            decorated_cup(p1_poly()),
            decorated_cup(p1sq_poly()),
        ]
        gens = presentation(movs, 2)
        P = ActionParams(ring=ZZ, N=2, t1=1, t2=0, t3=0)
        for op in ("e", "h", "f"):
            A = induced_action(op, P, gens)
            assert A.certificate.ok
            assert "dimension 1" in A.certificate.detail

    def test_phi0_base_only_carries_the_differential(self):
        gens = circle_presentation(1, 2, ZZ, "phi0")
        P = ActionParams(ring=ZZ, N=2, t1=1, t2=0, t3=0)
        with pytest.raises(InputError):
            induced_action("h", P, gens)

    def test_generators_and_images_pair_in_one_evaluation(self, monkeypatch):
        gens = circle_presentation(1, 3, QQ)
        calls = []
        real = statespace._family_values
        monkeypatch.setattr(
            statespace, "_family_values", lambda *a: calls.append(a) or real(*a)
        )
        induced_action("h", rich_pack(3), gens)
        assert len(calls) == 1

    def test_witt_operator_raises_degree(self):
        P = ActionParams(ring=QQ, N=2)
        gens = circle_presentation(1, 2, QQ)
        A = induced_action("L:1", P, gens)
        # degree-lowering corner must vanish for a degree +2 operator
        assert A.matrix[0][1].is_zero() or A.matrix[0][1].qdegree() == 4

    def test_bad_operator_fails_before_any_pairing(self, monkeypatch):
        def no_pairing(*args, **kwargs):
            raise AssertionError("pairing work started")

        monkeypatch.setattr(statespace, "_movie_sums", no_pairing)
        monkeypatch.setattr(statespace, "_pairings", no_pairing)
        gens = circle_presentation(1, 2, QQ)
        for op in ("L:x", "L:-2", "q"):
            with pytest.raises(InputError):
                induced_action(op, ActionParams(ring=QQ, N=2), gens)


# Matrices and certificate details computed by the earlier solver (Cramer's
# rule over Bareiss determinants; a rational rref for degenerate pairings).
# The fraction-free Gauss-Jordan pass must reproduce them exactly.
PINNED = {
    "circle(1,3).e": (
        ("0", "-1", "0"),
        ("0", "0", "-2"),
        ("0", "0", "0"),
        "pairing nondegenerate; kernel trivial",
    ),
    "circle(1,3).h": (
        ("2", "0", "0"),
        ("0", "0", "0"),
        ("0", "0", "-2"),
        "pairing nondegenerate; kernel trivial",
    ),
    "circle(1,3).f": (
        ("-1/2*X1 - 1/2*X2 - 1/2*X3", "0", "3/2*X1*X2*X3"),
        ("-1/2", "-1/2*X1 - 1/2*X2 - 1/2*X3", "-3/2*X1*X2 - 3/2*X1*X3 - 3/2*X2*X3"),
        ("0", "1/2", "X1 + X2 + X3"),
        "pairing nondegenerate; kernel trivial",
    ),
    "circle(1,3).d": (
        ("0", "0", "0"),
        ("1", "0", "0"),
        ("0", "2", "0"),
        "pairing nondegenerate; kernel trivial",
    ),
    "theta(1,1,3).e": (
        ("0", "-1", "-2", "0", "0", "0"),
        ("0", "0", "0", "-2", "0", "0"),
        ("0", "0", "0", "-1", "-1", "0"),
        ("0", "0", "0", "0", "0", "-1"),
        ("0", "0", "0", "0", "0", "-1"),
        ("0", "0", "0", "0", "0", "0"),
        "pairing nondegenerate; kernel trivial",
    ),
    "theta(1,1,3).h": (
        ("2", "0", "0", "0", "0", "0"),
        ("0", "0", "0", "0", "0", "0"),
        ("0", "0", "0", "0", "0", "0"),
        ("0", "0", "0", "-2", "0", "0"),
        ("0", "0", "0", "0", "-2", "0"),
        ("0", "0", "0", "0", "0", "-4"),
        "pairing nondegenerate; kernel trivial",
    ),
    "theta(1,1,3).f": (
        ("-X1 - X2 - X3", "0", "-3/2*X1*X2 - 3/2*X1*X3 - 3/2*X2*X3", "X1*X2*X3", "-3/2*X1*X2*X3", "0"),
        ("0", "-X1 - X2 - X3", "0", "-5/2*X1*X2 - 5/2*X1*X3 - 5/2*X2*X3", "0", "-5/2*X1*X2*X3"),
        ("1/2", "0", "1/2*X1 + 1/2*X2 + 1/2*X3", "0", "0", "X1*X2*X3"),
        ("0", "3/2", "0", "3/2*X1 + 3/2*X2 + 3/2*X3", "0", "0"),
        ("0", "-1", "-1/2", "-X1 - X2 - X3", "1/2*X1 + 1/2*X2 + 1/2*X3", "-X1*X2 - X1*X3 - X2*X3"),
        ("0", "0", "0", "1/2", "0", "3/2*X1 + 3/2*X2 + 3/2*X3"),
        "pairing nondegenerate; kernel trivial",
    ),
    "theta(1,1,3).d": (
        ("0", "0", "2*X1*X2 + 2*X1*X3 + 2*X2*X3", "2*X1*X2*X3", "2*X1*X2*X3", "0"),
        ("1", "0", "0", "0", "0", "0"),
        ("0", "0", "X1 + X2 + X3", "0", "0", "2*X1*X2*X3"),
        ("0", "2", "1", "0", "0", "0"),
        ("0", "1", "2", "X1 + X2 + X3", "X1 + X2 + X3", "X1*X2 + X1*X3 + X2*X3"),
        ("0", "0", "0", "1", "1", "0"),
        "pairing nondegenerate; kernel trivial",
    ),
    "thin_cups(N=2).e": (
        ("0", "-1", "0"),
        ("0", "0", "-2"),
        ("0", "0", "0"),
        "kernel of dimension 1 is preserved",
    ),
    "thin_cups(N=2).h": (
        ("1", "0", "3*X1*X2"),
        ("0", "-1", "-3*X1 - 3*X2"),
        ("0", "0", "0"),
        "kernel of dimension 1 is preserved",
    ),
    "thin_cups(N=2).f": (
        ("-1/2*X1 - 1/2*X2", "-X1*X2", "-3/2*X1^2*X2 - 3/2*X1*X2^2"),
        ("0", "1/2*X1 + 1/2*X2", "3/2*X1^2 + X1*X2 + 3/2*X2^2"),
        ("0", "0", "0"),
        "kernel of dimension 1 is preserved",
    ),
    "thin_cups(N=2).d": (
        ("0", "0", "2*X1^2*X2 + 2*X1*X2^2"),
        ("2", "0", "X1^2 + X1*X2 + X2^2"),
        ("0", "0", "0"),
        "kernel of dimension 1 is preserved",
    ),
}


def thin_cups(ring, N=2, kmax=2, base="equivariant"):
    """Thin cups dotted p_1^k, k = 0..kmax: a kernel of dimension 1 at N = 2.

    On ``phi0`` two cups pair to a nonzero constant only when their dots add
    up to N - 1, so every cup beyond N - 1 dots is in the kernel."""
    movs = [decorated_cup()]
    for k in range(1, kmax + 1):
        movs.append(decorated_cup(SymPoly(power_sum(ring, ("x1",), 1) ** k, (1,))))
    return presentation(movs, N, ring, base)


PINNED_FAMILIES = {
    "circle(1,3)": (3, lambda ring: circle_presentation(1, 3, ring)),
    "theta(1,1,3)": (3, lambda ring: theta_presentation(1, 1, 3, ring)),
    "thin_cups(N=2)": (2, thin_cups),
}


class TestPinnedMatrices:
    @pytest.mark.parametrize("op", ["e", "h", "f", "d"])
    @pytest.mark.parametrize("family", sorted(PINNED_FAMILIES))
    def test_matches_the_previous_solver(self, family, op):
        N, build = PINNED_FAMILIES[family]
        if op == "d":
            ring = GF(3)
            P = ActionParams(ring=ring, N=N, t1=1, t2=2, t3=0)
        else:
            ring = QQ
            P = rich_pack(N)
        A = induced_action(op, P, build(ring))
        *rows, detail = PINNED[f"{family}.{op}"]
        assert [tuple(str(e) for e in row) for row in A.matrix] == rows
        assert A.certificate.detail == detail


# sha256 of ``str(matrix)`` and the certificate detail of induced actions,
# recorded before the solver skipped its identity updates: name -> (N,
# build(ring), digest, detail).  The thin cups have a kernel of dimension
# 2, so their digests pin the reduced solution with free unknowns 0.
SOLVE_PINS = {
    "circle(3,6).d": (
        6,
        lambda ring: circle_presentation(3, 6, ring),
        "e4298d74eb3165bba6bed4667b1ad2bf99d3c1d821cec857ba1000eee06259f2",
        "pairing nondegenerate; kernel trivial",
    ),
    "thin_cups(N=4).e": (
        4,
        lambda ring: thin_cups(ring, 4, 5),
        "3a9aaa67f7145c3898f49024dafa50f6422bd72251b57deb9108b0895e322984",
        "kernel of dimension 2 is preserved",
    ),
    "thin_cups(N=4).h": (
        4,
        lambda ring: thin_cups(ring, 4, 5),
        "36cb0a93379d6392951c2d0ade06c002588d9d675a6cca846c80db374f68c02a",
        "kernel of dimension 2 is preserved",
    ),
    "thin_cups(N=4).f": (
        4,
        lambda ring: thin_cups(ring, 4, 5),
        "0fda9888a617915b876e8663935341fdf47ddb1dce38780edbb7138b8402c019",
        "kernel of dimension 2 is preserved",
    ),
    "thin_cups(N=4).d": (
        4,
        lambda ring: thin_cups(ring, 4, 5),
        "97e3f53ff87a5ae06b5ff99a8513fe4b6a4f8ff125d2547d495df5b865801e04",
        "kernel of dimension 2 is preserved",
    ),
}


@pytest.mark.parametrize("case", sorted(SOLVE_PINS))
def test_solved_matrix_digest_is_pinned(case):
    N, build, digest, detail = SOLVE_PINS[case]
    op = case[-1]
    ring = GF(5) if op == "d" else QQ
    A = induced_action(op, differential_pack(op, ring, N), build(ring))
    assert hashlib.sha256(str(A.matrix).encode()).hexdigest() == digest
    assert A.certificate.detail == detail


# Presentations at N <= 4 for the differential test of the solver over
# the elementary basis: name -> (N, build(ring)).
DIFFERENTIAL_FAMILIES = {
    "circle(1,2)": (2, lambda ring: circle_presentation(1, 2, ring)),
    "circle(1,4)": (4, lambda ring: circle_presentation(1, 4, ring)),
    "circle(2,3)": (3, lambda ring: circle_presentation(2, 3, ring)),
    "circle(2,4)": (4, lambda ring: circle_presentation(2, 4, ring)),
    "theta(1,1,3)": (3, lambda ring: theta_presentation(1, 1, 3, ring)),
    "thin_cups(N=2)": (2, thin_cups),
    "thin_cups(N=3)": (3, lambda ring: thin_cups(ring, 3, 3)),
    "thin_cups(N=4)": (4, lambda ring: thin_cups(ring, 4, 5)),
    "circle(1,3) phi0": (3, lambda ring: circle_presentation(1, 3, ring, "phi0")),
    "circle(2,4) phi0": (4, lambda ring: circle_presentation(2, 4, ring, "phi0")),
    "thin_cups(N=2) phi0": (2, lambda ring: thin_cups(ring, 2, 2, "phi0")),
    "thin_cups(N=3) phi0": (3, lambda ring: thin_cups(ring, 3, 3, "phi0")),
    "thin_cups(N=4) phi0": (4, lambda ring: thin_cups(ring, 4, 5, "phi0")),
}


def induced_outcome(solve):
    """``(matrix, certificate detail)``, or the ``NotWellDefined`` message."""
    try:
        matrix, detail = solve()
    except NotWellDefined as exc:
        return "NotWellDefined", str(exc)
    return [list(row) for row in matrix], detail


def outcomes(op, P, gens):
    """The package's outcome and the pigment-basis reference's."""

    def package():
        A = induced_action(op, P, gens)
        return A.matrix, A.certificate.detail

    return (
        induced_outcome(package),
        induced_outcome(lambda: oracle.induced_reference(op, P, gens)),
    )


def differential_cases():
    for family in sorted(DIFFERENTIAL_FAMILIES):
        ops = "d" if family.endswith("phi0") else "ehfd"
        for op in ops:
            for ring in (QQ, GF(5)) if op != "d" else (GF(5),):
                yield family, op, ring


def differential_pack(op, ring, N):
    if op == "d":
        return ActionParams(ring=ring, N=N, t1=1, t2=2, t3=0)
    if ring == QQ:
        return rich_pack(N)
    return ActionParams(ring=ring, N=N, t1=1, t2=3, t3=0)


class TestInducedAgainstPigmentBasis:
    """The solve over ``e_1..e_N`` against the reference solve on entries in
    ``X1..XN`` (``oracle.induced_reference``)."""

    @pytest.mark.parametrize("family,op,ring", list(differential_cases()))
    def test_same_matrix_and_certificate(self, family, op, ring):
        N, build = DIFFERENTIAL_FAMILIES[family]
        got, want = outcomes(op, differential_pack(op, ring, N), build(ring))
        assert got == want
        if family.startswith("thin_cups"):
            # on both bases the cups span the circle, of rank N
            dim = {2: 1, 3: 1, 4: 2}[N]
            assert got[1] == f"kernel of dimension {dim} is preserved"

    @pytest.mark.parametrize("N,kmax", [(2, 2), (3, 3)])
    @pytest.mark.parametrize("op", ["e", "f"])
    def test_same_kernel_violation(self, N, kmax, op, monkeypatch):
        # images of h certified with the derivation of op: the kernel moves
        real = actions.apply_operator

        def wrong(_op, params, S):
            return real("h", params, S)

        monkeypatch.setattr(statespace, "apply_operator", wrong)
        monkeypatch.setattr(actions, "apply_operator", wrong)
        got, want = outcomes(op, rich_pack(N), thin_cups(QQ, N, kmax))
        assert got[0] == "NotWellDefined" and "kernel" in got[1]
        assert got == want

    @pytest.mark.parametrize(
        "N,cups,op,reason",
        [(3, (2,), "e", "polynomial"), (2, (0,), "d", "span"), (3, (0, 1), "f", "span")],
    )
    def test_same_unsolvable_system(self, N, cups, op, reason):
        # one-sided families of dotted thin cups whose systems have no
        # polynomial solution
        ring = GF(5) if op == "d" else QQ
        movs = [
            decorated_cup(SymPoly(power_sum(ring, ("x1",), 1) ** k, (1,)) if k else None)
            for k in cups
        ]
        gens = presentation(movs, N, ring)
        got, want = outcomes(op, differential_pack(op, ring, N), gens)
        assert got[0] == "NotWellDefined" and reason in got[1]
        assert got == want


class TestOperatorAlgebraAgainstPigmentBasis:
    """Compositions, brackets and powers of the solved matrices in
    ``e_1..e_N`` against dense products and ``witt_act`` on the matrices in
    ``X1..XN`` (``oracle.operator_compose_reference``, ``..._power_...``)."""

    @pytest.mark.parametrize("N,a", [(2, 1), (3, 1), (3, 2), (4, 2)])
    def test_sl2_compositions_and_brackets(self, N, a):
        gens = circle_presentation(a, N, QQ)
        acts = [induced_action(g, rich_pack(N), gens) for g in "ehf"]
        compose_ref = oracle.operator_compose_reference
        nonzero = 0
        basis = ElementaryBasis(xvars(N))
        for x in acts:
            assert all(e.vars == basis.e_names for row in x.solution for e in row)
            assert tuple(tuple(basis.from_e(e) for e in row) for row in x.solution) == x.matrix
            for y in acts:
                want = compose_ref(x, y)
                assert operator_compose(x, y) == want
                bracket = oracle.mat_add_reference(
                    want, oracle.mat_neg_reference(compose_ref(y, x))
                )
                assert operator_commutator(x, y) == bracket
                nonzero += not mat_is_zero(want)
            for k in (1, 2, 3):
                assert operator_power(x, k) == oracle.operator_power_reference(x, k)
        assert nonzero
        E, H, F = acts
        assert mat_is_zero(mat_sub(operator_commutator(E, F), H.matrix))

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("N,a", [(2, 1), (3, 1), (4, 1), (4, 2)])
    @pytest.mark.parametrize("base", ["equivariant", "phi0"])
    def test_differential_powers(self, p, N, a, base):
        pack = ActionParams(ring=GF(p), N=N, t1=1, t2=2, t3=0)
        act = induced_action("d", pack, circle_presentation(a, N, GF(p), base))
        basis = ElementaryBasis(xvars(N))
        assert all(e.vars == basis.e_names for row in act.solution for e in row)
        assert act.matrix == tuple(tuple(basis.from_e(e) for e in row) for row in act.solution)
        if base == "phi0":
            assert all(e.is_constant() for row in act.solution for e in row)
        powers = [operator_power(act, k) for k in range(1, p + 1)]
        assert powers == [oracle.operator_power_reference(act, k) for k in range(1, p + 1)]
        assert not mat_is_zero(powers[0]) and mat_is_zero(powers[-1])
        assert operator_compose(act, act) == oracle.operator_compose_reference(act, act)

    def test_bases_do_not_mix(self):
        pack = ActionParams(ring=GF(3), N=2, t1=1, t2=2, t3=0)
        eq, phi0 = (
            induced_action("d", pack, circle_presentation(1, 2, GF(3), base))
            for base in ("equivariant", "phi0")
        )
        for x, y in ((eq, phi0), (phi0, eq)):
            with pytest.raises(InputError):
                operator_compose(x, y)
            with pytest.raises(InputError):
                operator_commutator(x, y)

    @pytest.mark.parametrize("a2,N2", [(2, 3), (1, 4)], ids=["same_N", "other_N"])
    def test_presentations_do_not_mix(self, a2, N2):
        # e on the thin circle at N = 3 against h on another family: the
        # coordinates refer to different generators
        e = induced_action("e", rich_pack(3), circle_presentation(1, 3, QQ))
        h = induced_action("h", rich_pack(N2), circle_presentation(a2, N2, QQ))
        for x, y in ((e, h), (h, e)):
            with pytest.raises(InputError, match="presentations"):
                operator_compose(x, y)
            with pytest.raises(InputError, match="presentations"):
                operator_commutator(x, y)


@st.composite
def sparse_operands(draw):
    """``(A, B, C)``: ``A`` is n x k, ``B`` k x m and ``C`` n x k, mostly
    zero, over Z, Q or F5 in ``E1..Ek`` for k <= 3, with whole rows of ``A``
    and columns of ``B`` blanked, and sometimes a whole matrix zero."""
    ring = draw(st.sampled_from([ZZ, QQ, GF(5)]))
    vs = tuple(f"E{i}" for i in range(1, draw(st.integers(1, 3)) + 1))
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    coeffs = st.fractions(-3, 3, max_denominator=3) if ring == QQ else st.integers(-3, 3)
    exps = st.tuples(*(st.integers(0, 2) for _ in vs))
    zero = MultiPoly.zero(ring, vs)
    entry = st.one_of(
        st.just(zero),
        st.just(zero),
        st.dictionaries(exps, coeffs, min_size=1, max_size=3).map(
            lambda d: MultiPoly(ring, vs, d)
        ),
    )

    def matrix(rows, cols):
        if draw(st.integers(0, 5)) == 0:
            return tuple((zero,) * cols for _ in range(rows))
        return tuple(tuple(draw(entry) for _ in range(cols)) for _ in range(rows))

    A, B, C = matrix(n, k), matrix(k, m), matrix(n, k)
    blank_rows = draw(st.sets(st.integers(0, n - 1)))
    blank_cols = draw(st.sets(st.integers(0, m - 1)))
    A = tuple((zero,) * k if i in blank_rows else row for i, row in enumerate(A))
    B = tuple(tuple(zero if j in blank_cols else x for j, x in enumerate(row)) for row in B)
    return A, B, C


def monomial_permutation(ring, vs, perm, shift):
    """The permutation matrix of ``perm`` with entry ``(i, perm[i])`` the
    monomial ``(i + 1) E1^(i + shift)``."""
    n = len(perm)
    zero = MultiPoly.zero(ring, vs)
    return tuple(
        tuple(
            MultiPoly(ring, vs, {(i + shift,) + (0,) * (len(vs) - 1): i + 1})
            if j == perm[i] else zero
            for j in range(n)
        )
        for i in range(n)
    )


class TestSparseMatrices:
    """``mat_mul``, ``mat_add`` and ``mat_sub`` pair only nonzero entries;
    the references in ``oracle`` pair every entry."""

    @given(sparse_operands())
    @settings(max_examples=200, deadline=None)
    def test_equal_the_dense_references(self, operands):
        A, B, C = operands
        assert mat_mul(A, B) == oracle.mat_mul_reference(A, B)
        assert mat_add(A, C) == oracle.mat_add_reference(A, C)
        assert mat_sub(A, C) == oracle.mat_add_reference(A, oracle.mat_neg_reference(C))
        assert mat_sub(C, A) == oracle.mat_add_reference(C, oracle.mat_neg_reference(A))

    @pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)], ids=str)
    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 1, 1), (3, 2, 1), (1, 3, 2)])
    def test_small_shapes_and_zero_matrices(self, ring, shape):
        n, k, m = shape
        vs = ("E1", "E2")
        e1, e2 = (MultiPoly.var(ring, vs, v) for v in vs)
        zero = MultiPoly.zero(ring, vs)
        pool = [e1 + 2, zero, e2 * e1 - 1, zero, e1 * e1]
        A = tuple(tuple(pool[(i + 2 * j) % 5] for j in range(k)) for i in range(n))
        B = tuple(tuple(pool[(3 * i + j) % 5] for j in range(m)) for i in range(k))
        Z = tuple((zero,) * m for _ in range(k))
        for left, right in ((A, B), (A, Z), (tuple((zero,) * k for _ in range(n)), B)):
            got = mat_mul(left, right)
            assert got == oracle.mat_mul_reference(left, right)
            assert all(type(row) is tuple for row in got) and len(got) == n
        assert mat_is_zero(mat_mul(A, Z))
        assert mat_add(A, mat_sub(A, A)) == A

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize(
        "other,error,text",
        [
            (MultiPoly.zero(QQ, ("E1", "E2")), WrongRing, "mixed rings"),
            (MultiPoly.zero(ZZ, ("E1", "E3")), ValueError, "mixed variable alphabets"),
        ],
        ids=["ring", "alphabet"],
    )
    def test_zero_entry_from_another_base_raises(self, side, other, error, text):
        vs = ("E1", "E2")
        x = MultiPoly.var(ZZ, vs, "E1") + 1
        good = ((x, x), (x, MultiPoly.zero(ZZ, vs)))
        bad = ((x, x), (other, x))
        for op in (mat_mul, mat_add, mat_sub):
            args = (bad, good) if side == "left" else (good, bad)
            with pytest.raises(error, match=text):
                op(*args)

    def test_permutation_product_makes_one_product_per_entry(self, monkeypatch):
        # 12 nonzero pairs of 1,728
        vs = ("E1", "E2")
        P = monomial_permutation(QQ, vs, [(5 * i + 3) % 12 for i in range(12)], 0)
        S = monomial_permutation(QQ, vs, [(7 * i + 1) % 12 for i in range(12)], 1)
        calls = []
        real = polyring._add_product
        monkeypatch.setattr(
            polyring, "_add_product", lambda out, a, b: calls.append(1) or real(out, a, b)
        )
        got = mat_mul(P, S)
        assert len(calls) == 12
        monkeypatch.undo()
        assert got == oracle.mat_mul_reference(P, S)


def is_zero_vector(M, v):
    return mat_is_zero(mat_mul(M, [[x] for x in v]))


solve = statespace._fraction_free_solve
X1, X2 = (MultiPoly.var(ZZ, xvars(2), v) for v in xvars(2))
ONE = MultiPoly.const(ZZ, xvars(2), 1)
ZERO = MultiPoly.zero(ZZ, xvars(2))


@st.composite
def solvable_systems(draw):
    """A square M (often singular, as a product L R through k <= n), and Y."""
    ring = draw(st.sampled_from([ZZ, QQ, GF(5)]))
    vs = ("X1", "X2")
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    m = draw(st.integers(1, 2))
    if ring == QQ:
        coeffs = st.fractions(-3, 3, max_denominator=3)
    else:
        coeffs = st.integers(-3, 3)
    exps = st.sampled_from([(0, 0), (1, 0), (0, 1)])
    entry = st.dictionaries(exps, coeffs, max_size=2).map(
        lambda d: MultiPoly(ring, vs, d)
    )

    def matrix(rows, cols):
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    M = mat_mul(matrix(n, k), matrix(k, n)) if k < n else matrix(n, n)
    return M, matrix(n, m)


class TestFractionFreeSolve:
    def test_column_outside_the_span_is_not_well_defined(self):
        M = [[X1, X2], [X1 * 2, X2 * 2]]
        with pytest.raises(NotWellDefined, match="span"):
            solve(M, [[ONE], [ZERO]])

    def test_non_polynomial_solution_is_not_well_defined(self):
        with pytest.raises(NotWellDefined, match="polynomial") as info:
            solve([[X1 - X2]], [[ONE]])
        assert not isinstance(info.value, DivisionNotExact)

    def test_degenerate_matrix_kernel(self):
        # rank 1: every row is a polynomial multiple of (X1, X2, X1*X2)
        row = [X1, X2, X1 * X2]
        M = [row, [X2 * e for e in row], [ZERO] * 3]
        B = ((X1,), (X1 * X2,), (ZERO,))
        rank, kernel, X = solve(M, B)
        assert rank == 1 and len(kernel) == 2
        for v in kernel:
            assert not all(e.is_zero() for e in v)
            assert is_zero_vector(M, v)
        assert mat_mul(M, X) == B

    def test_thin_cup_gram_kernel(self):
        G = gram_matrix(thin_cups(ZZ))
        M = [list(row) for row in G.entries]
        zero = [[MultiPoly.zero(ZZ, xvars(2))] for _ in M]
        rank, kernel, _ = solve(M, zero)
        assert (rank, len(kernel)) == (2, 1)
        assert is_zero_vector(M, kernel[0])

    @given(solvable_systems())
    @settings(max_examples=60, deadline=None)
    def test_solution_rank_and_kernel(self, system):
        M, Y = system
        n = len(M)
        zero = MultiPoly.zero(M[0][0].ring, M[0][0].vars)
        rank, kernel, _ = solve(M, [[zero] for _ in range(n)])
        assert rank + len(kernel) == n
        # an echelon kernel basis: each vector ends at its own free unknown,
        # so the vectors are independent
        free = []
        for v in kernel:
            assert is_zero_vector(M, v)
            support = [c for c in range(n) if not v[c].is_zero()]
            assert support
            free.append(support[-1])
        assert len(set(free)) == len(free)
        # B is in the span of the pivot columns, so the reduced solution,
        # with its free unknowns 0, is exactly Y
        Y = [[zero] * len(row) if i in free else row for i, row in enumerate(Y)]
        B = mat_mul(M, Y)
        rank2, kernel2, X = solve(M, B)
        assert (rank2, kernel2) == (rank, kernel)
        assert mat_mul(M, X) == B
        assert X == Y


def solve_outcome(solver, M, B):
    """``(rank, kernel, X)`` with every entry's typed terms, or the
    ``NotWellDefined`` message."""
    try:
        rank, kernel, X = solver(M, B)
    except NotWellDefined as exc:
        return "NotWellDefined", str(exc)

    def typed(rows):
        return [[{e: (type(c), c) for e, c in x.terms.items()} for x in row] for row in rows]

    return rank, typed(kernel), typed(X)


class TestSolveAgainstFullUpdate:
    """The solver, which skips identity and zero updates, against the
    Bareiss pass that updates every entry
    (``oracle.fraction_free_solve_reference``)."""

    @given(solvable_systems(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_rank_kernel_and_solution(self, system, data):
        M, Y = system
        n = len(M)
        zero = MultiPoly.zero(M[0][0].ring, M[0][0].vars)
        if data.draw(st.booleans(), label="zero column"):
            c = data.draw(st.integers(0, n - 1), label="column")
            M = [[zero if j == c else e for j, e in enumerate(row)] for row in M]
        # Y itself is mostly outside the span or without a polynomial
        # solution; M Y is inside it
        for B in (Y, mat_mul(M, Y)):
            got = solve_outcome(solve, M, B)
            assert got == solve_outcome(oracle.fraction_free_solve_reference, M, B)

    @pytest.mark.parametrize(
        "M",
        [
            # second pivot X1^2 - X2^2 after X1: p != prev, with a zero entry
            # in the pivot column of the third row
            [[X1, X2, ONE], [X2, X1, ZERO], [ZERO, ZERO, X1 + X2]],
            # a zero column and a repeated row: rank 1
            [[X1, ZERO, X2], [X1, ZERO, X2], [X2 * 2, ZERO, ONE]],
            # constant pivots, one of them 1
            [[ONE, X1, ZERO], [ONE * 2, ZERO, X2], [ZERO, ONE * 3, X1]],
        ],
    )
    def test_same_outcome_on_hand_built_systems(self, M):
        for B in ([[X1], [X2], [ONE]], mat_mul(M, [[X1], [ONE], [X2]])):
            got = solve_outcome(solve, M, B)
            assert got == solve_outcome(oracle.fraction_free_solve_reference, M, B)


lifted = statespace._lifted_solve

#: Monomials in ``E1, E2`` (weights 1 and 2) by weight.
GRADED_MONOMIALS = {
    0: [(0, 0)], 1: [(1, 0)], 2: [(2, 0), (0, 1)], 3: [(3, 0), (1, 1)],
    4: [(4, 0), (2, 1), (0, 2)],
}


@st.composite
def graded_systems(draw):
    """``(M, B)`` with entry ``(i, j)`` of ``M`` homogeneous of weight
    ``g_i + h_j`` in ``E1, E2`` (0 where that is negative or above 4), often
    singular as a product ``L R`` through ``k <= n``; ``B`` graded by the
    same rows, as ``M Y`` or drawn."""
    ring = draw(st.sampled_from([ZZ, QQ, GF(5)]))
    vs = ("E1", "E2")
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    m = draw(st.integers(1, 2))
    if ring == QQ:
        coeffs = st.fractions(-2, 2, max_denominator=2)
    else:
        coeffs = st.integers(-2, 2)

    def grades(size):
        return draw(st.lists(st.integers(-1, 1), min_size=size, max_size=size))

    def matrix(rows, cols):
        return [
            [
                MultiPoly(ring, vs, draw(st.dictionaries(
                    st.sampled_from(GRADED_MONOMIALS[r + c]), coeffs, max_size=2
                ))) if 0 <= r + c <= 4 else MultiPoly.zero(ring, vs)
                for c in cols
            ]
            for r in rows
        ]

    g, h, out = grades(n), grades(n), grades(m)
    if k < n:
        inner = grades(k)
        M = mat_mul(matrix(g, inner), matrix([-t for t in inner], h))
    else:
        M = matrix(g, h)
    if draw(st.booleans()):
        B = mat_mul(M, matrix([-t for t in h], out))
    else:
        B = matrix(g, out)
    return [list(row) for row in M], [list(row) for row in B]


def assert_lifted_is_bareiss(got, M, B, unit=False):
    """``got``, a lifted solve of ``M X = B``, has Bareiss's rank and ``X``
    (coefficient types included) and its kernel vectors up to scaling: by
    a nonzero constant when ``unit``."""
    rank, kernel, X = solve(M, B)
    assert got[0] == rank
    assert solve_outcome(lambda *_: got, M, B)[2] == solve_outcome(solve, M, B)[2]
    assert len(got[1]) == len(kernel)
    for mine, theirs in zip(got[1], kernel):
        f = next(c for c, e in enumerate(mine) if e == 1)
        scale = theirs[f]
        assert [e * scale for e in mine] == theirs
        assert not scale.is_zero() and (scale.is_constant() or not unit)


def bench_rich_pack(N):
    return ActionParams(
        ring=QQ, N=N, s=Fraction(1, 4),
        nu1=WittSequence.linear(QQ, Fraction(1, 2)),
        nu2=WittSequence.linear(QQ, Fraction(-1, 3)),
        nu3=WittSequence.linear(QQ, Fraction(1, 5)),
        t1=Fraction(2, 3), t2=Fraction(-1, 2),
    )


@st.composite
def scalar_matrices(draw):
    """A square scalar matrix of size 1..4 over Z, Q, F2 or F5 with small
    entries, often singular."""
    ring = draw(st.sampled_from([ZZ, QQ, GF(2), GF(5)]))
    n = draw(st.integers(1, 4))
    coeffs = st.fractions(-2, 2, max_denominator=2) if ring == QQ else st.integers(-2, 2)
    row = st.lists(coeffs, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    return ring, [[ring.normalize(x) for x in r] for r in rows]


def scalar_rank(vectors, ring):
    """The rank of ``vectors`` over Q, or over F_p for F_p."""
    p = ring.p if ring.kind == "Fp" else None

    def reduce(x):
        return x % p if p else x

    def divide(x, y):
        return x * pow(y, -1, p) % p if p else Fraction(x) / y

    rows, rank = [list(v) for v in vectors], 0
    for c in range(len(rows[0]) if rows else 0):
        i = next((i for i in range(rank, len(rows)) if reduce(rows[i][c])), None)
        if i is None:
            continue
        rows[rank], rows[i] = rows[i], rows[rank]
        for k in range(rank + 1, len(rows)):
            f = divide(rows[k][c], rows[rank][c])
            rows[k] = [reduce(x - f * y) for x, y in zip(rows[k], rows[rank])]
        rank += 1
    return rank


class TestPivotBlock:
    """``_pivot_block`` against a greedy column basis and its inverse."""

    @given(scalar_matrices())
    @settings(max_examples=200, deadline=None)
    def test_greedy_columns_and_their_inverse(self, case):
        ring, M0 = case
        n = len(M0)
        field = QQ if ring == ZZ else ring
        block = statespace._pivot_block(M0, field)
        P, R, U = block
        columns = [[row[c] for row in M0] for c in range(n)]
        greedy = []
        for c in range(n):
            if scalar_rank([columns[j] for j in greedy + [c]], ring) > len(greedy):
                greedy.append(c)
        assert P == greedy
        assert len(R) == len(set(R)) == len(P)
        product = [
            [field.normalize(sum(U[a][b] * M0[r][c] for b, r in enumerate(R))) for c in P]
            for a in range(len(P))
        ]
        assert product == [[int(a == c) for c in range(len(P))] for a in range(len(P))]
        if ring == ZZ:
            # None exactly when the inverse over Q is not integral
            integral = all(Fraction(u).denominator == 1 for row in U for u in row)
            got = statespace._pivot_block(M0, ZZ)
            assert got == (block if integral else None)
            assert got is None or all(type(u) is int for row in got[2] for u in row)


class TestLiftedSolve:
    """The solve lifted from ``M_0`` against ``_fraction_free_solve``."""

    @pytest.mark.parametrize(
        "ring,ops,count",
        [(QQ, "ehf", 129), (GF(5), "d", 86), (ZZ, "e", 43)],
        ids=["QQ", "F5", "ZZ"],
    )
    def test_equals_bareiss_on_every_small_family(self, ring, ops, count):
        # the phi0 base carries only d
        cases = 0
        for gens in _small_family_presentations(ring):
            if gens.base == "phi0" and ops != "d":
                continue
            for op in ops:
                if ring == ZZ:
                    pack = ActionParams(ring=ZZ, N=gens.N, t1=1, t2=-2, t3=0)
                else:
                    pack = differential_pack(op, ring, gens.N)
                basis = ElementaryBasis(xvars(gens.N))
                M, B = statespace._induced_system(op, pack, gens, basis)
                got = lifted(M, B)
                assert got is not None, (gens.web, gens.N, gens.base, op)
                assert_lifted_is_bareiss(got, M, B, unit=True)
                cases += 1
        assert cases == count

    @given(graded_systems())
    @settings(max_examples=150, deadline=None)
    def test_equals_bareiss_or_declines(self, system):
        M, B = system
        got = lifted(M, B)
        if got is None:
            return
        assert solve_outcome(solve, M, B)[0] != "NotWellDefined"
        assert_lifted_is_bareiss(got, M, B)

    @pytest.mark.parametrize(
        "N,cups,op", [(3, (2,), "e"), (2, (0,), "d"), (3, (0, 1), "f")]
    )
    def test_one_sided_cups_take_the_fallback(self, N, cups, op, monkeypatch):
        # the families of ``test_same_unsolvable_system``: no polynomial
        # solution, so the lifting declines and Bareiss raises
        ring = GF(5) if op == "d" else QQ
        movs = [
            decorated_cup(SymPoly(power_sum(ring, ("x1",), 1) ** k, (1,)) if k else None)
            for k in cups
        ]
        gens = presentation(movs, N, ring)
        pack = differential_pack(op, ring, N)
        M, B = statespace._induced_system(op, pack, gens, ElementaryBasis(xvars(N)))
        assert lifted(M, B) is None
        calls = []
        monkeypatch.setattr(
            statespace, "_fraction_free_solve", lambda *a: calls.append(a) or solve(*a)
        )
        with pytest.raises(NotWellDefined):
            induced_action(op, pack, gens)
        assert len(calls) == 1

    def test_moved_kernel_vector_is_reported_by_bareiss(self, monkeypatch):
        # images of h certified with the derivation of e: the lifting
        # succeeds, its kernel moves, and Bareiss solves again
        real = actions.apply_operator
        monkeypatch.setattr(statespace, "apply_operator", lambda _op, *a: real("h", *a))
        outcomes_seen = []
        monkeypatch.setattr(
            statespace, "_lifted_solve", lambda *a: outcomes_seen.append(lifted(*a)) or outcomes_seen[-1]
        )
        calls = []
        monkeypatch.setattr(
            statespace, "_fraction_free_solve", lambda *a: calls.append(a) or solve(*a)
        )
        with pytest.raises(NotWellDefined, match="kernel"):
            induced_action("e", rich_pack(2), thin_cups(QQ, 2, 2))
        assert outcomes_seen[0] is not None and len(calls) == 1

    def test_bench_systems_never_reach_bareiss(self, monkeypatch):
        # the circle and thin-cup systems of the ``induced`` benchmark
        def no_bareiss(*args):
            raise AssertionError("fell back to _fraction_free_solve")

        monkeypatch.setattr(statespace, "_fraction_free_solve", no_bareiss)
        dpack = partial(ActionParams, ring=GF(5), t1=1, t2=2, t3=0)
        systems = [
            ("d", dpack(N=5), circle_presentation(2, 5, GF(5))),
            ("d", dpack(N=4), thin_cups(GF(5), 4, 6)),
        ] + [
            (op, bench_rich_pack(4), gens)
            for gens in (circle_presentation(2, 4, QQ), thin_cups(QQ, 4, 6))
            for op in "ehf"
        ]
        for op, pack, gens in systems:
            assert induced_action(op, pack, gens).certificate.ok


class TestMoyChecks:
    @pytest.mark.parametrize("N,a", [(2, 1), (3, 1), (3, 2), (4, 2)])
    def test_circle(self, N, a):
        assert moy_check("circle", N, a=a).ok

    @pytest.mark.parametrize("N", [2, 3])
    def test_digon(self, N):
        assert moy_check("digon", N).ok

    @pytest.mark.parametrize("N", [2, 3])
    def test_bad_digon(self, N):
        assert moy_check("bad_digon", N).ok

    def test_assoc(self):
        assert moy_check("assoc", 3).ok

    @pytest.mark.parametrize("N", [2, 3])
    def test_square(self, N):
        assert moy_check("square", N).ok

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_bad_square_identity(self, N):
        report = moy_check("bad_square", N)
        assert report.ok
        assert "skipped" in report.detail

    @pytest.mark.parametrize("N", [1, 0, -3])
    def test_bad_square_needs_two_pigments(self, N):
        with pytest.raises(InputError, match="N >= 2" if N == 1 else "N must be >= 1"):
            moy_check("bad_square", N)

    @pytest.mark.parametrize("relation", list(statespace.MOY_RELATIONS))
    def test_n_and_trials_are_checked_for_every_relation(self, relation):
        for N in (0, -3):
            with pytest.raises(InputError, match="N must be >= 1"):
                moy_check(relation, N)
        for trials in (0, -1):
            with pytest.raises(InputError, match="specialization"):
                moy_check(relation, 3, trials=trials)

    def test_unknown_relation(self):
        with pytest.raises(InputError):
            moy_check("pentagon", 2)

    def test_digon_rank_matches_zip_reading(self):
        # the two generator families of the two-vertex web span the same space
        d = graded_rank(theta_presentation(1, 1, 3))
        z = graded_rank(zipped_presentation(1, 1, 3))
        assert d == z

    def test_square_rank_value(self):
        got = graded_rank(necklace_presentation(2))
        two = quantum_integer(2)
        assert got == laurent_mul(two, two)

    def test_chain_presentations_share_the_web_rank(self):
        left = graded_rank(chain_presentation("left", 1, 1, 1, 3))
        right = graded_rank(chain_presentation("right", 1, 1, 1, 3))
        assert left == right


class TestLaurentHelpers:
    def test_quantum_integer(self):
        assert quantum_integer(3) == {-2: 1, 0: 1, 2: 1}
        assert quantum_integer(0) == {}

    def test_add_mul(self):
        a = {0: 1, 2: 1}
        b = {-2: 1, 0: -1}
        assert laurent_add(a, b) == {-2: 1, 2: 1}
        assert laurent_mul(a, {0: 2}) == {0: 2, 2: 2}


class TestOracleInternals:
    def test_sphere_values(self):
        assert oracle.sphere_value(0, 2) == {}
        assert oracle.sphere_value(1, 2) == {(0, 0): -1}
        minus_e1 = {e: -c for e, c in oracle.elementary_poly(2, 1).items()}
        assert oracle.sphere_value(2, 2) == minus_e1

    def test_sphere_value_at_a_point(self):
        for N in (2, 3, 4):
            for k in range(N + 3):
                value = oracle.sphere_value(k, N)
                for point in ([3, -1, 7, 2][:N], [-5, 4, 0, 9][:N]):
                    want = sum(
                        c * math.prod(x**m for x, m in zip(point, e))
                        for e, c in value.items()
                    )
                    assert oracle.sphere_value_at(k, point) == want

    def test_pairing_matches_package_on_dotted_spheres(self):
        for k in range(4):
            dec = SymPoly(power_sum(ZZ, ("x1",), 1) ** k, (1,)) if k else None
            val = pair_movies(decorated_cup(dec), decorated_cup(), 2, ZZ)
            assert {e: c for e, c in val.terms.items()} == {
                e: int(c) for e, c in oracle.sphere_value(k, 2).items()
            }


def two_shape_presentation(N=3, ring=ZZ):
    """Dotted thin cups, some after a dotted thin sphere born and killed.

    The generators have two different undecorated movies, so their
    pairings fall into four undecorated foams.
    """
    movs = []
    for sphere_dots in (None, N - 1, N):
        for k in (0, 1):
            b = MovieBuilder()
            if sphere_dots is not None:
                s = b.cup(1)
                b.decorate(s, SymPoly(power_sum(ring, ("x1",), 1) ** sphere_dots, (1,)))
                b.cap(s)
            c = b.cup(1, "c")
            if k:
                b.decorate(c, p1_poly(ring))
            movs.append(b.movie())
    return presentation(movs, N, ring)


# every presentation family at N <= 4, and the two-shape family
FAMILIES = {
    "circle(1,3)": lambda ring: circle_presentation(1, 3, ring),
    "circle(2,4)": lambda ring: circle_presentation(2, 4, ring),
    "theta(1,1,3)": lambda ring: theta_presentation(1, 1, 3, ring),
    "zipped(1,1,3)": lambda ring: zipped_presentation(1, 1, 3, ring),
    "necklace(3)": lambda ring: necklace_presentation(3, ring),
    "left(1,1,1,3)": lambda ring: chain_presentation("left", 1, 1, 1, 3, ring),
    "right(1,1,1,3)": lambda ring: chain_presentation("right", 1, 1, 1, 3, ring),
    "two_shapes(3)": lambda ring: two_shape_presentation(3, ring),
}


def per_term_value(S, N, ring):
    """Σ coef · evaluate(term), one full evaluation per term."""
    total = MultiPoly.zero(ring, xvars(N))
    for coef, mov in S.movies():
        total = total + evaluate(mov, N, ring).value * coef
    return total


class TestOneEvaluationPath:
    """``evaluate_family`` against ``evaluate`` of every foam on its own."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_gram_equals_pair_movies(self, family):
        gens = FAMILIES[family](ZZ)
        entries = gram_matrix(gens).entries  # expanded once, not on every read
        for i, F in enumerate(gens.movies):
            for j, Gm in enumerate(gens.movies):
                assert entries[i][j] == pair_movies(F, Gm, gens.N, gens.ring)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_gram_is_symmetric(self, family):
        entries = gram_matrix(FAMILIES[family](ZZ)).entries
        n = len(entries)
        assert all(entries[i][j] == entries[j][i] for i in range(n) for j in range(n))

    def test_two_shapes_share_four_undecorated_foams(self):
        gens = two_shape_presentation()
        bare = {
            _strip_decorations(compose(F, mirror(Gm)))[0]
            for F in gens.movies
            for Gm in gens.movies
        }
        assert len(bare) == 4

    @pytest.mark.parametrize("family", FAMILIES)
    def test_operator_image_values(self, family):
        gens = FAMILIES[family](QQ)
        P = rich_pack(gens.N)
        for F, Gm in zip(gens.movies, reversed(gens.movies)):
            closed = compose(F, mirror(Gm))
            for S in (act_witt(1, P, closed), act_sl2("f", P, closed)):
                assert S.value() == per_term_value(S, gens.N, QQ)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_operator_image_pairings(self, family, monkeypatch):
        gens = FAMILIES[family](QQ)
        P = rich_pack(gens.N)
        zero = MultiPoly.zero(QQ, xvars(gens.N))
        basis = ElementaryBasis(xvars(gens.N))
        e_zero = MultiPoly.zero(QQ, basis.e_names)
        for op in ("L:-1", "L:1"):
            for F in gens.movies[:3]:
                S = apply_operator(op, P, F)
                want = [
                    sum(
                        (pair_movies(mov, Gm, gens.N, QQ) * coef for coef, mov in S.movies()),
                        zero,
                    )
                    for Gm in gens.movies
                ]
                # the pairings come in e_1..e_N
                want_e = [basis.to_e(w) for w in want]
                terms = list(S.movies())
                rows = statespace._pairings(
                    [FoamSum.from_movie(mov, P) for _, mov in terms], gens, basis
                )
                got = [
                    sum((row[j] * coef for (coef, _), row in zip(terms, rows)), e_zero)
                    for j in range(len(gens))
                ]
                assert got == want_e
                with monkeypatch.context() as m:
                    # a formal sum is paired by its dot shapes, not as movies
                    m.setattr(FoamSum, "_materialize", None)
                    assert statespace._pairings([S], gens, basis) == [want_e]
                    assert is_zero_in_statespace(S, gens) == all(w.is_zero() for w in want)


def detour_presentation(N=3, ring=ZZ):
    """Thickness-2 cups, some split by a digon that closes again.

    A plain cup and a cup followed by a digon-cup and a digon-cap are two
    undecorated movies with one boundary web; the cups carry ``e_lam``, and
    the digon's thin edges are dotted between the two moves.
    """
    movs = []
    for lam in box_partitions(N - 2, 2):
        b = MovieBuilder()
        b.decorate(b.cup(2, "e6"), elementary_product(ring, 2, lam))
        movs.append(b.movie())
    for k in range(3):
        b = MovieBuilder()
        c = b.cup(2, "y")
        b.decorate(c, elementary_product(ring, 2, (1,) * (k % 2)))
        d = b.digon_cup(c, 1, 1)
        b.decorate(d.edge_a, SymPoly(power_sum(ring, ("x1",), 1) ** k, (1,)))
        if k == 2:
            b.decorate(d.edge_b, p1_poly(ring))
        b.digon_cap(d.edge_a, d.edge_b)
        movs.append(b.movie())
    return presentation(movs, N, ring)


class TestPairingsByUndecoratedMovie:
    """``_pairings`` builds one composite per (skeleton, undecorated
    generator) and places each generator's decorations on it; every entry
    must equal ``pair_movies`` of the decorated movies."""

    def test_two_undecorated_movies_against_pair_movies(self):
        gens = detour_presentation()
        n = len(gens)
        assert len({id(bare) for bare, _ in gens.split}) == 2
        basis = ElementaryBasis(xvars(gens.N))
        want = [
            [basis.to_e(pair_movies(F, G, gens.N, gens.ring)) for G in gens.movies]
            for F in gens.movies
        ]
        assert sum(not e.is_zero() for row in want for e in row) > n
        rows = statespace._movie_sums(gens.split, gens)
        assert statespace._pairings(rows, gens, basis) == want
        # a subset of columns per row, each row's in its own order
        cols = [[j for j in reversed(range(n)) if (i + j) % 3] for i in range(n)]
        got = statespace._pairings(rows, gens, basis, cols)
        assert got == [[want[i][j] for j in js] for i, js in enumerate(cols)]

    def test_composite_row_takes_the_double_prime_tag(self):
        # a row movie that is itself a composite carries primed ids, so its
        # composite with a mirrored generator renames by a second prime, and
        # the generator's decorations must follow that rename
        gens = detour_presentation()
        cup, detour = gens.movies[0], gens.movies[-1]
        b = MovieBuilder(cup.output_web)
        s = b.cup(1)
        b.decorate(s, SymPoly(power_sum(ZZ, ("x1",), 1) ** (gens.N - 1), (1,)))
        b.cap(s)
        bubble = b.movie()
        row = compose(cup, bubble)
        ((bare, _),) = foamcore._split_movies([row])
        _, rename = foamcore._composite(bare, mirror(gens.split[-1][0]))
        assert rename("e1") == "e1''"
        assert any(d.edge.endswith("''") for d in compose(row, mirror(detour)).moves
                   if isinstance(d, foamcore.Decorate))
        basis = ElementaryBasis(xvars(gens.N))
        sums = statespace._movie_sums(foamcore._split_movies([row]), gens)
        (got,) = statespace._pairings(sums, gens, basis)
        assert got == [basis.to_e(pair_movies(row, G, gens.N, ZZ)) for G in gens.movies]
        # the dotted bubble is a scalar: the row is that multiple of the cup
        sphere = MovieBuilder()
        t = sphere.cup(1)
        sphere.decorate(t, SymPoly(power_sum(ZZ, ("x1",), 1) ** (gens.N - 1), (1,)))
        sphere.cap(t)
        c = evaluate(sphere.movie(), gens.N).value.constant_value()
        assert c != 0
        assert is_zero_in_statespace([(1, row), (-c, cup)], gens)
        assert not is_zero_in_statespace([(1, row)], gens)


# the standard presentations at N <= 6 whose reference route stays under a
# few seconds: every circle, the thin digons, the 3- and 4-pigment
# necklaces and the thin chains at N = 4
STANDARD_TO_6 = {
    **{
        f"circle({a},{N})": partial(circle_presentation, a, N)
        for N in range(2, 7)
        for a in range(1, N)
    },
    **{f"theta(1,1,{N})": partial(theta_presentation, 1, 1, N) for N in range(3, 7)},
    **{f"zipped(1,1,{N})": partial(zipped_presentation, 1, 1, N) for N in range(3, 7)},
    **{f"theta(1,2,{N})": partial(theta_presentation, 1, 2, N) for N in (4, 5)},
    **{f"zipped(2,1,{N})": partial(zipped_presentation, 2, 1, N) for N in (4, 5)},
    "necklace(3)": partial(necklace_presentation, 3),
    "necklace(4)": partial(necklace_presentation, 4),
    "left(1,1,1,4)": partial(chain_presentation, "left", 1, 1, 1, 4),
    "right(1,1,1,4)": partial(chain_presentation, "right", 1, 1, 1, 4),
}


class TestGramAgainstDividedDifferences:
    """Gram entries through Schur coefficients against the earlier route:
    orbit sums by divided differences in ``X1..XN`` and leading-term
    subtraction into ``e_1..e_N`` (``oracle.divided_difference_value``)."""

    @pytest.mark.parametrize("family", STANDARD_TO_6)
    def test_e_entries(self, family, monkeypatch):
        gens = STANDARD_TO_6[family]()
        got = gram_matrix(gens).e_entries
        monkeypatch.setattr(foameval._ShapeTable, "value", oracle.divided_difference_value)
        assert gram_matrix(gens).e_entries == got


class TestExports:
    @pytest.mark.parametrize("module", [statespace, dsl], ids=lambda m: m.__name__)
    def test_every_exported_name_resolves(self, module):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []

"""End-to-end acceptance suite.

Each test class exercises one headline guarantee of the package, at the
scale promised in the project contract: corpus-level well-formedness of
the evaluation, the colored Euler-characteristic bookkeeping, the operator
family and its sl2 / differential specializations, state-space ranks of
the standard webs, and the hand-computed worked values pinned against the
independent brute-force oracle in ``tests/oracle.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from foamlab.actions import (
    ActionParams,
    act_pdg,
    commutator_check,
    sl2_relations_check,
    verify_compat,
)
from foamlab.cli import main
from foamlab.corpus import basic_open_movies, closed_corpus, spherical_corpus
from foamlab.errors import CharTwoNonSpherical
from foamlab.foamcore import (
    Decorate,
    Movie,
    MovieBuilder,
    Saddle,
    Web,
    bichrome_data,
    compile_movie,
    enumerate_colorings,
    local_counts,
)
from foamlab.foameval import (
    bubble_check,
    degree,
    dot_migration_check,
    evaluate,
    is_symmetric,
)
from foamlab.polyring import (
    GF,
    MultiPoly,
    QQ,
    SymPoly,
    WittSequence,
    ZZ,
    complete_homogeneous,
    power_sum,
    qbinom_laurent,
    symmetric_basis,
)
from foamlab.statespace import (
    circle_presentation,
    gram_matrix,
    graded_rank,
    induced_action,
    laurent_mul,
    mat_is_zero,
    moy_check,
    operator_commutator,
    operator_power,
    mat_sub,
    mat_scale,
    theta_presentation,
    zipped_presentation,
)

from oracle import eval_scalar, sphere_gram, sphere_value, sphere_value_at


def rich_pack(N: int) -> ActionParams:
    return ActionParams(
        ring=QQ,
        N=N,
        s=Fraction(1, 4),
        nu1=WittSequence.linear(QQ, Fraction(1, 2)),
        nu2=WittSequence.linear(QQ, Fraction(-1, 3)),
        nu3=WittSequence.linear(QQ, Fraction(1, 5)),
        t1=Fraction(2, 3),
        t2=Fraction(-1, 2),
    )


def sphere_movie(thickness: int = 1, dots: int = 0):
    b = MovieBuilder(input_web=Web.empty())
    e = b.cup(thickness)
    for _ in range(dots):
        b.decorate(e, symmetric_basis("power_sum", 1, ZZ, ("x1",)))
    b.cap(e)
    return b.movie()


# ---------------------------------------------------------------------------
# 1. Corpus-level well-formedness of the evaluation
# ---------------------------------------------------------------------------


class TestEvaluationWellFormed:
    def test_two_hundred_random_closed_movies(self):
        start = time.monotonic()
        checked = 0
        for N in (2, 3):
            for mov in closed_corpus(seed=41 + N, count=100):
                value = evaluate(mov, N).value
                assert is_symmetric(value)
                if not value.is_zero():
                    assert value.is_homogeneous()
                    assert value.qdegree() == degree(mov, N)
                checked += 1
        assert checked >= 200
        assert time.monotonic() - start < 60


# ---------------------------------------------------------------------------
# 2. Degree as a sum of bichrome Euler characteristics
# ---------------------------------------------------------------------------


class TestDegreeIsEulerSum:
    def test_degree_equals_minus_bichrome_chi_sum(self):
        for decorated in closed_corpus(seed=7, count=40):
            mov = Movie(
                decorated.input_web,
                tuple(m for m in decorated.moves if not isinstance(m, Decorate)),
            )
            for N in (2, 3):
                F = compile_movie(mov)
                d = degree(F, N)
                for c in enumerate_colorings(F, N):
                    total = 0
                    for i in range(1, N + 1):
                        for j in range(i + 1, N + 1):
                            chi, _ = bichrome_data(F, c, i, j)
                            total += chi
                    assert d == -total, (mov, c)


# ---------------------------------------------------------------------------
# 3. Colored Euler bookkeeping of the local move counts
# ---------------------------------------------------------------------------


def _tally(F, c, i, j):
    cij = local_counts(F, c, i, j)
    cji = local_counts(F, c, j, i)
    total = (
        cij.A + cji.A + cij.U + cji.U + cij.Lam + cji.Lam
        - cij.Z - cji.Z + cij.V + cji.V - cij.Y - cji.Y
    )
    return total, cij, cji


class TestEulerBookkeeping:
    def test_monochrome_cup_cap_balance_without_saddles(self):
        for mov in spherical_corpus(seed=13, count=40):
            F = compile_movie(mov)
            for c in enumerate_colorings(F, 2):
                for i in (1, 2):
                    cups = sum(
                        1 for tr in F.traces
                        if tr.kind == "cup" and i in c[tr.facets[0]]
                    )
                    caps = sum(
                        1 for tr in F.traces
                        if tr.kind == "cap" and i in c[tr.facets[0]]
                    )
                    assert cups == caps

    def test_bichrome_cup_cap_balance_without_saddles(self):
        for mov in spherical_corpus(seed=17, count=40):
            F = compile_movie(mov)
            for c in enumerate_colorings(F, 2):
                cij, cji = local_counts(F, c, 1, 2), local_counts(F, c, 2, 1)
                assert cij.U + cji.A == cji.U + cij.A

    def test_local_tally_gives_bichrome_chi(self):
        for mov in spherical_corpus(seed=5, count=40):
            F = compile_movie(mov)
            for N in (2, 3):
                for c in enumerate_colorings(F, N):
                    for i in range(1, N + 1):
                        for j in range(i + 1, N + 1):
                            chi, _ = bichrome_data(F, c, i, j)
                            tally, _, _ = _tally(F, c, i, j)
                            assert chi == tally

    def test_saddle_correction_to_the_tally(self):
        for mov in closed_corpus(seed=9, count=40):
            F = compile_movie(mov)
            for c in enumerate_colorings(F, 2):
                chi, _ = bichrome_data(F, c, 1, 2)
                tally, tij, tji = _tally(F, c, 1, 2)
                assert chi == tally - tij.S - tji.S


# ---------------------------------------------------------------------------
# 4. Commutators of the operator family on every basic foam
# ---------------------------------------------------------------------------


class TestOperatorCommutators:
    def test_all_index_pairs_three_packs(self):
        start = time.monotonic()
        packs = [
            (Fraction(1, 4), Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5)),
            (Fraction(-2, 3), Fraction(3, 4), Fraction(1, 7), Fraction(-2)),
            (Fraction(0), Fraction(-1), Fraction(2, 5), Fraction(1, 3)),
        ]
        movies = dict(basic_open_movies(1, 1))
        movies.update(
            {f"{k}/1,2": m for k, m in basic_open_movies(1, 2).items()}
        )
        indices = range(-1, 4)
        for s, l1, l2, l3 in packs:
            for name, mov in movies.items():
                thick = max(
                    (f.thickness for f in compile_movie(mov).facets.values()),
                    default=1,
                )
                saddled = any(isinstance(m, Saddle) for m in mov.moves)
                pack = ActionParams(
                    ring=QQ,
                    N=max(3, thick),
                    s=s,
                    nu1=WittSequence.linear(QQ, l1),
                    nu2=WittSequence.linear(QQ, l2),
                    nu3=None if saddled else WittSequence.linear(QQ, l3),
                )
                for n in indices:
                    for m in indices:
                        rep = commutator_check(n, m, pack, mov)
                        assert rep.ok, (name, n, m, rep.detail)
        assert time.monotonic() - start < 30


# ---------------------------------------------------------------------------
# 5. Evaluation compatibility of the operator family
# ---------------------------------------------------------------------------


class TestEvaluationCompatibility:
    def test_fifty_closed_movies_without_saddles(self):
        pack = rich_pack(2)
        movies = spherical_corpus(seed=23, count=50, ring=QQ)
        assert len(movies) >= 50
        for mov in movies:
            for n in range(4):
                rep = verify_compat(mov, n, pack)
                assert rep.ok, (mov, n, rep.detail)

    def test_twenty_saddle_movies_with_vanishing_third_sequence(self):
        pack = ActionParams(
            ring=QQ,
            N=2,
            s=Fraction(1, 4),
            nu1=WittSequence.linear(QQ, Fraction(1, 2)),
            nu2=WittSequence.linear(QQ, Fraction(-1, 3)),
        )
        saddled = [
            mov
            for mov in closed_corpus(seed=29, count=120, ring=QQ)
            if any(isinstance(m, Saddle) for m in mov.moves)
        ][:20]
        assert len(saddled) >= 20
        for mov in saddled:
            for n in range(4):
                rep = verify_compat(mov, n, pack)
                assert rep.ok, (mov, n, rep.detail)


# ---------------------------------------------------------------------------
# 6. The sl2 triple, on movies and as state-space matrices
# ---------------------------------------------------------------------------


class TestSl2:
    def test_relations_on_basic_movies(self):
        pack = rich_pack(3)
        # movies with saddles need a vanishing third sequence and 1/2
        saddle_pack = ActionParams(
            ring=QQ,
            N=3,
            s=Fraction(1, 4),
            nu1=WittSequence.linear(QQ, Fraction(1, 2)),
            nu2=WittSequence.linear(QQ, Fraction(-1, 3)),
        )
        for name, mov in basic_open_movies(1, 1).items():
            p = saddle_pack if name == "saddle" else pack
            rep = sl2_relations_check(p, mov)
            assert rep.ok, (name, rep.detail)

    @pytest.mark.parametrize("N", [2, 3])
    def test_matrix_relations_on_circle_states(self, N):
        pack = rich_pack(N)
        pres = circle_presentation(1, N, QQ)
        E = induced_action("e", pack, pres)
        H = induced_action("h", pack, pres)
        F = induced_action("f", pack, pres)
        assert mat_is_zero(mat_sub(operator_commutator(E, F), H.matrix))
        assert mat_is_zero(
            mat_sub(operator_commutator(H, E), mat_scale(E.matrix, 2))
        )
        assert mat_is_zero(
            mat_sub(operator_commutator(H, F), mat_scale(F.matrix, -2))
        )

    @pytest.mark.parametrize("N", [2, 3])
    def test_matrix_relations_over_the_integers(self, N):
        # integral parameters; no division by 2 anywhere in the run
        pack = ActionParams(ring=ZZ, N=N, t1=1, t2=-2, t3=0)
        pres = circle_presentation(1, N, ZZ)
        E = induced_action("e", pack, pres)
        H = induced_action("h", pack, pres)
        F = induced_action("f", pack, pres)
        assert mat_is_zero(mat_sub(operator_commutator(E, F), H.matrix))
        assert mat_is_zero(
            mat_sub(operator_commutator(H, E), mat_scale(E.matrix, 2))
        )
        assert mat_is_zero(
            mat_sub(operator_commutator(H, F), mat_scale(F.matrix, -2))
        )


# ---------------------------------------------------------------------------
# 7. The differential is nilpotent of order p on circle states
# ---------------------------------------------------------------------------


class TestDifferentialNilpotence:
    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("Na", [(2, 1), (3, 1), (4, 1), (4, 2)])
    @pytest.mark.parametrize("base", ["equivariant", "phi0"])
    def test_pth_power_vanishes(self, p, Na, base):
        N, a = Na
        pack = ActionParams(ring=GF(p), N=N, t1=1, t2=2, t3=0)
        pres = circle_presentation(a, N, GF(p), base)
        act = induced_action("d", pack, pres)
        assert mat_is_zero(operator_power(act, p))

    def test_circle_2_6_over_f5(self):
        # the matrix text's sha256 was recorded with the solve in X1..XN
        start = time.monotonic()
        pack = ActionParams(ring=GF(5), N=6, t1=1, t2=2, t3=0)
        act = induced_action("d", pack, circle_presentation(2, 6, GF(5)))
        assert act.certificate.ok
        assert mat_is_zero(operator_power(act, 5))
        text = "\n".join(", ".join(str(e) for e in row) for row in act.matrix)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "62fb384d669059017c51f1cdd3aa2019b39d57893889ff852dc44c764433e353"
        )
        assert time.monotonic() - start < 30

    def test_circle_3_6_over_f5(self):
        # the matrix text's sha256 was recorded with every shape value
        # lifted to its table's common denominator
        start = time.monotonic()
        pack = ActionParams(ring=GF(5), N=6, t1=1, t2=2, t3=0)
        act = induced_action("d", pack, circle_presentation(3, 6, GF(5)))
        assert act.certificate.ok
        assert mat_is_zero(operator_power(act, 5))
        text = "\n".join(", ".join(str(e) for e in row) for row in act.matrix)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c6b0794b7454ad9df78b4502ee451aaa87d089c40df92d0a4832df47ba45eacf"
        )
        assert time.monotonic() - start < 30

    @pytest.mark.parametrize("base", ["equivariant", "phi0"])
    def test_char_two_squares_to_zero_without_saddles(self, base):
        pack = ActionParams(ring=GF(2), N=2, t1=1, t2=1, t3=0)
        pres = circle_presentation(1, 2, GF(2), base)
        act = induced_action("d", pack, pres)
        assert mat_is_zero(operator_power(act, 2))

    def test_char_two_rejects_saddles(self):
        pack = ActionParams(ring=GF(2), N=2, t1=1, t2=1, t3=0)
        with pytest.raises(CharTwoNonSpherical):
            act_pdg(pack, basic_open_movies()["saddle"])


# ---------------------------------------------------------------------------
# 8. Graded ranks of the standard web state spaces
# ---------------------------------------------------------------------------


class TestStateSpaceRanks:
    def test_all_rank_identities(self):
        start = time.monotonic()
        for N, a in ((2, 1), (3, 1), (3, 2), (4, 2)):
            pres = circle_presentation(a, N)
            assert graded_rank(pres) == qbinom_laurent(N, a)
        for N in (2, 3):
            digon = theta_presentation(1, 1, N)
            want = laurent_mul(qbinom_laurent(2, 1), qbinom_laurent(N, 2))
            assert graded_rank(digon) == want
            reversed_digon = zipped_presentation(1, 1, N)
            want = laurent_mul(qbinom_laurent(N - 1, 1), qbinom_laurent(N, 1))
            assert graded_rank(reversed_digon) == want
        assert time.monotonic() - start < 120

    def test_cli_rank_of_the_circle_at_ten_pigments(self, capsys):
        start = time.monotonic()
        assert main(["rank", "--web", "circle:1", "--N", "10", "--json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["rank"] == sorted(map(list, qbinom_laurent(10, 1).items()))
        assert time.monotonic() - start < 60

    @pytest.mark.parametrize(
        "relation,N,kw", [("circle", 6, {"a": 3}), ("square", 4, {}), ("assoc", 4, {})]
    )
    def test_larger_webs(self, relation, N, kw):
        # Gram matrices of 20 x 20, 24 x 24 and twice 24 x 24 pairings
        report = moy_check(relation, N, **kw)
        assert report.ok, report.detail


# ---------------------------------------------------------------------------
# 9. Worked values against the independent brute-force oracle
# ---------------------------------------------------------------------------


def _as_oracle(value: MultiPoly) -> dict:
    return {e: Fraction(c) for e, c in value.terms.items()}


class TestWorkedValues:
    def test_dotted_sphere_is_minus_one(self):
        value = evaluate(sphere_movie(dots=1), 2).value
        assert value == MultiPoly.const(ZZ, value.vars, -1)
        assert _as_oracle(value) == sphere_value(1, 2)

    def test_undecorated_sphere_is_zero(self):
        value = evaluate(sphere_movie(), 2).value
        assert value.is_zero()
        assert sphere_value(0, 2) == {}

    def test_circle_pairing_matrix(self):
        G = gram_matrix(circle_presentation(1, 2))
        got = [[_as_oracle(e) for e in row] for row in G.entries]
        assert got == sphere_gram(2, [0, 1])
        # the hand value: [[0, -1], [-1, -E1]]
        e1 = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
        assert got == [
            [{}, {(0, 0): Fraction(-1)}],
            [{(0, 0): Fraction(-1)}, {k: -v for k, v in e1.items()}],
        ]

    def test_circle_pairing_matrix_at_eight_pigments(self):
        # entry (a, b) is a thin sphere with a + b dots, -h_{a+b-7}; checked
        # against the oracle's sum over colorings at random points
        start = time.monotonic()
        G = gram_matrix(circle_presentation(1, 8))
        assert time.monotonic() - start < 10
        vs = G.entries[0][0].vars
        rng = random.Random(8)
        points = [rng.sample(range(-40, 40), 8) for _ in range(3)]
        for a, row in enumerate(G.entries):
            for b, entry in enumerate(row):
                k = a + b
                h = complete_homogeneous(ZZ, vs, k - 7) if k >= 7 else MultiPoly.zero(ZZ, vs)
                assert entry == -h
                for point in points:
                    at = eval_scalar(entry, dict(zip(vs, point)))
                    assert at == sphere_value_at(k, point)

    @pytest.mark.parametrize(
        "thickness,k,want", [(1, 5, 1), (2, 8, 56693912375296)]
    )
    def test_twelve_disjoint_dotted_spheres(self, thickness, k, want):
        # one sphere is 1 or -14 at N = 6; the union of twelve is the
        # product, summed one component at a time
        vs = tuple(f"x{i}" for i in range(1, thickness + 1))
        dot = SymPoly(power_sum(ZZ, vs, 1) ** k, (thickness,))
        b = MovieBuilder()
        for _ in range(12):
            e = b.cup(thickness)
            b.decorate(e, dot)
            b.cap(e)
        start = time.monotonic()
        value = evaluate(b.movie(), 6).value
        assert time.monotonic() - start < 2
        assert value == MultiPoly.const(ZZ, value.vars, want)


# ---------------------------------------------------------------------------
# 10. Bubble values and dot migration, per coloring
# ---------------------------------------------------------------------------


class TestBubblesAndMigration:
    def test_bubble_signs(self):
        cases = [
            (sphere_movie(), symmetric_basis("power_sum", 1, ZZ, ("y1",)), 2),
            (sphere_movie(), symmetric_basis("power_sum", 2, ZZ, ("y1", "y2")), 3),
            (sphere_movie(2), symmetric_basis("elementary", 1, ZZ, ("y1",)), 3),
            (sphere_movie(dots=1), symmetric_basis("power_sum", 1, ZZ, ("y1",)), 2),
        ]
        for base, R, N in cases:
            rep = bubble_check(base, base.moves[0].out_edge, R, N)
            assert rep.ok, rep.detail

    def test_dot_migration_through_a_digon(self):
        for N in (2, 3):
            for kind, k in (("power_sum", 1), ("power_sum", 2), ("elementary", 2)):
                R = symmetric_basis(kind, k, ZZ, ("x1", "x2"))
                rep = dot_migration_check(1, 1, R, N)
                assert rep.ok, (N, kind, k, rep.detail)

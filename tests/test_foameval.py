"""Tests for colored and summed foam evaluation, degree, and bubble calculus.

Frozen expected values were derived by hand from the sign/denominator
conventions (monochrome and bichrome Euler characteristics of spheres) and
are treated as an independent oracle for the implementation.
"""

import collections
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from foamlab.corpus import (
    closed_corpus,
    random_decoration,
    random_open_movie,
    spherical_corpus,
)
from foamlab import foameval
from foamlab.errors import (
    FoamlabError,
    InputError,
    NonHomogeneous,
    NotEquivariant,
    NotPolynomial,
    NotSymmetric,
    OddEuler,
    PatternMismatch,
    SeamSignInconsistent,
)
from foamlab.foameval import (
    _ShapeTable,
    _check_degree,
    _orbit_order,
    _e_weights,
    bubble_check,
    colored_eval,
    degree,
    degree_incremental,
    dot_migration_check,
    evaluate,
    evaluate_family,
    split_decoration,
    trivial_degree_check,
    with_bubble,
)
from foamlab.foamcore import (
    Cap,
    Cup,
    Decorate,
    EulerWalk,
    Facet,
    FoamComplex,
    Movie,
    MovieBuilder,
    SingularVertex,
    Web,
    Zip,
    _components,
    _strip_decorations,
    compile_movie,
    compose,
    enumerate_colorings,
    mirror,
)
from foamlab.polyring import (
    GF,
    QQ,
    ElementaryBasis,
    MultiPoly,
    RatFun,
    SymPoly,
    ZZ,
    elementary,
    facet_vars,
    power_sum,
    symmetric_basis,
    xvars,
)

from foamlab.statespace import (
    circle_presentation,
    gram_matrix,
    necklace_presentation,
    theta_presentation,
    zipped_presentation,
)

from oracle import (
    colored_eval_reference,
    degree_incremental_reference,
    shape_value_reference,
    unfactored_value,
)
from test_foamcore import (
    SEAM_COLORING,
    assoc_movie,
    membrane_bubble_movie,
    seam_complex,
    sphere_movie,
    sphere_via_saddle,
    theta_movie,
    torus_movie,
)


def power_sum_p1(m):
    """The first power sum in ``m`` variables, a bubble decoration."""
    return symmetric_basis("power_sum", 1, ZZ, tuple(f"y{i}" for i in range(1, m + 1)))


def X(N, i):
    return MultiPoly.var(ZZ, xvars(N), f"X{i}")


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


def theta_with_thin_dot(slot="a"):
    b = MovieBuilder()
    t = b.cup(2)
    dc = b.digon_cup(t, 1, 1)
    edge = dc.edge_a if slot == "a" else dc.edge_b
    b.decorate(edge, symmetric_basis("power_sum", 1, ZZ, ("x1",)))
    out = b.digon_cap(dc.edge_a, dc.edge_b)
    b.cap(out.out_edge)
    return b.movie()


class TestColoredEval:
    def test_sphere_N1(self):
        F = compile_movie(sphere_movie())
        (c,) = enumerate_colorings(F, 1)
        assert colored_eval(F, c, 1) == RatFun(
            MultiPoly.const(ZZ, xvars(1), -1)
        )

    def test_sphere_N2_both_colorings(self):
        F = compile_movie(sphere_movie())
        colorings = list(enumerate_colorings(F, 2))
        assert len(colorings) == 2
        one = MultiPoly.const(ZZ, xvars(2), 1)
        expected = {
            frozenset({1}): RatFun(-one, {(0, 1): 1}),
            frozenset({2}): RatFun(one, {(0, 1): 1}),
        }
        fid = next(iter(F.facets))
        for c in colorings:
            assert colored_eval(F, c, 2) == expected[c[fid]]

    def test_equivariance_on_corpus(self):
        # swapping two pigments in the coloring matches swapping variables
        for mov in closed_corpus(seed=23, count=10):
            F = compile_movie(mov)
            for c in enumerate_colorings(F, 3):
                val = colored_eval(F, c, 3)
                for p, q in ((1, 2), (2, 3)):
                    swap = {p: q, q: p}
                    c2 = {
                        f: frozenset(swap.get(x, x) for x in col)
                        for f, col in c.items()
                    }
                    perm = {f"X{p}": f"X{q}", f"X{q}": f"X{p}"}
                    num = val.num.permute_vars(perm)
                    den = {}
                    for (i, j), mult in val.den.items():
                        a, b = swap.get(i + 1, i + 1) - 1, swap.get(j + 1, j + 1) - 1
                        lo, hi = min(a, b), max(a, b)
                        den[(lo, hi)] = mult
                        if (a, b) != (lo, hi) and mult % 2:
                            num = -num
                    assert colored_eval(F, c2, 3) == RatFun(num, den)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), N=st.integers(2, 4))
    def test_every_coloring_is_its_representative_relabelled(self, seed, N):
        # exactly, numerator and denominator; and each representative is
        # fixed by the transpositions inside its blocks
        (mov,) = closed_corpus(seed=seed, count=1)
        F = compile_movie(mov)
        facets = sorted(F.facets)
        colored = []
        reps = {}
        for c in enumerate_colorings(F, N):
            key, perm = _orbit_order(c, facets, N)
            colored.append((key, perm, colored_eval(F, c, N)))
            if perm == list(range(N)):
                reps[key] = colored[-1][2]
        for key, perm, r in colored:
            want = reps[key].relabel(perm)
            assert (want.num, want.den) == (r.num, r.den)
        for key, rep in reps.items():
            for i in range(N - 1):
                if key[i] == key[i + 1]:
                    swap = list(range(N))
                    swap[i], swap[i + 1] = i + 1, i
                    fixed = rep.relabel(swap)
                    assert (fixed.num, fixed.den) == (rep.num, rep.den)


def value_or_error(call):
    """The value of ``call()``, or the type and text of the error it raised."""
    try:
        return call()
    except FoamlabError as exc:
        return type(exc), str(exc)


def assert_colored_eval_matches_reference(F, N, ring=ZZ):
    walk = EulerWalk(F)
    for c in enumerate_colorings(F, N):
        want = value_or_error(lambda: colored_eval_reference(F, c, N, ring))
        assert value_or_error(lambda: colored_eval(F, c, N, ring, walk)) == want, c
        assert value_or_error(lambda: colored_eval(F, c, N, ring)) == want, c


def vertex_pair_foam():
    """Two thin facets of Euler characteristic 1 meeting at one singular
    vertex: a pigment on both sees a surface of Euler characteristic 3, and
    pigments on one each see even surfaces but an odd bichrome one."""
    facets = {"f1": Facet("f1", 1, 1, ()), "f2": Facet("f2", 1, 1, ())}
    vertex = SingularVertex("v1", ("f1", "f2"), (), (1, 1, 0))
    return FoamComplex(facets, {}, {"v1": vertex}, (), True)


class TestColoredEvalAgainstReference:
    """One walk per coloring against one scan per pigment and per pair."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), N=st.integers(2, 5), spherical=st.booleans())
    def test_corpus(self, seed, N, spherical):
        corpus = spherical_corpus if spherical else closed_corpus
        (mov,) = corpus(seed=seed, count=1)
        assert_colored_eval_matches_reference(compile_movie(mov), N)

    def test_over_other_rings(self):
        for mov in closed_corpus(seed=41, count=5):
            F = compile_movie(mov)
            for ring in (QQ, GF(5)):
                assert_colored_eval_matches_reference(F, 3, ring)

    @pytest.mark.parametrize("N", [2, 3])
    def test_odd_euler(self, N):
        F = vertex_pair_foam()
        assert_colored_eval_matches_reference(F, N)
        walk = EulerWalk(F)
        with pytest.raises(OddEuler, match=r"^pigment 1: surface has odd Euler characteristic 3$"):
            colored_eval(F, {"f1": frozenset({1}), "f2": frozenset({1})}, N, ZZ, walk)
        with pytest.raises(
            OddEuler,
            match=r"^pigments \(1,2\): bichrome surface has odd Euler characteristic 3$",
        ):
            colored_eval(F, {"f1": frozenset({1}), "f2": frozenset({2})}, N, ZZ, walk)

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize(
        "segments, endpoints",
        [([("f1", "f2", "f3"), ("f2", "f1", "f3")], ()), ([("f1", "f2", "f3")], ("v1", "v2"))],
    )
    def test_seam_sign_inconsistent(self, segments, endpoints, N):
        F = seam_complex(segments, endpoints)
        assert_colored_eval_matches_reference(F, N)
        # the odd-valence seam also has an odd bichrome surface: the seam
        # error of a pair comes first
        with pytest.raises(SeamSignInconsistent):
            colored_eval(F, SEAM_COLORING, N)

    def test_no_coloring_reads_no_decoration(self):
        # a thickness-3 facet has no coloring at N = 2, so its bad decoration
        # (a 2-variable polynomial) is never canonicalized
        dec = SymPoly(power_sum(ZZ, facet_vars(2), 1), (2,))
        F = FoamComplex({"f1": Facet("f1", 3, 2, (dec,))}, {}, {}, (), True)
        assert evaluate(F, 2).value.is_zero()
        with pytest.raises(InputError, match="inner block 2 != facet thickness 3"):
            evaluate(F, 3)


def decorated_assoc_movie(rng):
    """A closed foam with one assoc and one coassoc singular vertex, its two
    thin cups and its first thick edge carrying random corpus decorations."""
    b = MovieBuilder()
    x = b.cup(1)
    y = b.cup(1)
    b.decorate(x, random_decoration(rng, 1))
    b.decorate(y, random_decoration(rng, 1))
    z1 = b.zip(x, y)
    b.decorate(z1.thick_edge, random_decoration(rng, 2))
    z = b.cup(1)
    z2 = b.zip(z1.thick_edge, z)
    b.assoc(z2.out_a1)
    b.coassoc(z2.out_a2)
    uz = b.unzip(z2.thick_edge)
    b.cap(uz.out_a)
    dcap = b.digon_cap(z1.out_b1, z2.out_b1)
    b.cap(dcap.out_edge)
    return b.movie()


def count_calls(monkeypatch):
    """Count the walk's tallies and ``_at_coloring`` by what their result
    depends on: the walk and the type or type pair, or the facet's
    canonical product (one per walk, facet, N and ring), color and N."""
    calls = collections.Counter()
    alive = []  # keys hold ids: keep their objects alive

    def counting(name, key_of, fn):
        def counted(*args):
            alive.append(args[0])
            calls[name, *key_of(*args)] += 1
            return fn(*args)

        return counted

    for name, key_of, owner in (
        ("bichrome", lambda walk, s, t, i, j: (id(walk), s, t), EulerWalk),
        ("euler", lambda walk, t: (id(walk), t), EulerWalk),
        ("_at_coloring", lambda p, color, N: (id(p), color, N), foameval),
    ):
        monkeypatch.setattr(owner, name, counting(name, key_of, getattr(owner, name)))
    return calls


class TestWalkTables:
    """A walk computes each tally, power and decoration at a color once, and
    its tables change no value and no error."""

    def test_each_key_is_computed_once_per_walk(self, monkeypatch):
        rng = random.Random(5)
        movies = [
            compose(mov, decorated_assoc_movie(rng)) for mov in closed_corpus(seed=5, count=8)
        ]
        for mov in movies:
            F = compile_movie(mov)
            assert F.vertices and any(f.decorations for f in F.facets.values())
        calls = count_calls(monkeypatch)
        for mov in movies:
            evaluate(mov, 4)
        assert {k[0] for k in calls} == {"bichrome", "euler", "_at_coloring"}
        assert max(calls.values()) == 1

    def test_values_match_a_walk_per_coloring(self):
        rng = random.Random(9)
        for mov in closed_corpus(seed=9, count=4):
            F = compile_movie(compose(mov, decorated_assoc_movie(rng)))
            for ring in (ZZ, GF(3)):
                assert_colored_eval_matches_reference(F, 4, ring)

    def test_one_pair_at_several_exponents(self):
        # two genus-2 thin facets: the bichrome surface of (1, 2) is one of
        # them or both, so one walk reads (X1 - X2)^1 and (X1 - X2)^2
        dec = SymPoly(power_sum(ZZ, facet_vars(1), 2), (1,))
        F = FoamComplex(
            {"f1": Facet("f1", 1, -2, (dec,)), "f2": Facet("f2", 1, -2, ())}, {}, {}, (), True
        )
        assert_colored_eval_matches_reference(F, 3)
        walk = EulerWalk(F)
        for c in enumerate_colorings(F, 3):
            colored_eval(F, c, 3, ZZ, walk)
        assert {k for i, j, k in walk.canonical[3, ZZ].powers if (i, j) == (1, 2)} == {1, 2}

    @pytest.mark.parametrize(
        "segments, endpoints",
        [([("f1", "f2", "f3"), ("f2", "f1", "f3")], ()), ([("f1", "f2", "f3")], ("v1", "v2"))],
    )
    def test_a_seam_error_is_raised_at_every_read(self, segments, endpoints):
        F = seam_complex(segments, endpoints)
        colorings = [
            # pigment 1 is on no facet: pairs (1, 2) and (1, 3) are kept
            # before pair (2, 3) raises
            {"f1": frozenset({2}), "f2": frozenset({3}), "f3": frozenset({2, 3})},
            SEAM_COLORING,
            # SEAM_COLORING's failing pair moved to pigments (1, 3)
            {"f1": frozenset({1}), "f2": frozenset({3}), "f3": frozenset({1, 3})},
        ]
        want = [value_or_error(lambda: colored_eval(F, c, 3)) for c in colorings]
        assert [w[0] for w in want] == [SeamSignInconsistent] * 3
        walk = EulerWalk(F)
        for k in (0, 1, 1, 2, 1, 0):
            assert value_or_error(lambda: colored_eval(F, colorings[k], 3, ZZ, walk)) == want[k]

    def test_odd_euler_comes_before_a_malformed_decoration(self):
        bad = SymPoly(power_sum(ZZ, facet_vars(2), 1), (2,))
        sphere = FoamComplex({"f1": Facet("f1", 1, 2, (bad,))}, {}, {}, (), True)
        with pytest.raises(InputError, match="inner block 2 != facet thickness 1"):
            evaluate(sphere, 2)
        F = vertex_pair_foam()
        F = FoamComplex(
            {**F.facets, "f1": Facet("f1", 1, 1, (bad,))}, F.bindings, F.vertices, (), True
        )
        walk = EulerWalk(F)
        colorings = [
            ({"f1": frozenset({1}), "f2": frozenset({1})}, r"^pigment 1: surface has odd"),
            ({"f1": frozenset({1}), "f2": frozenset({2})}, r"^pigments \(1,2\): bichrome"),
        ]
        for c, text in colorings * 2:
            with pytest.raises(OddEuler, match=text):
                colored_eval(F, c, 2, ZZ, walk)


class TestEvaluate:
    def test_empty_foam(self):
        empty = Movie(Web.empty(), ())
        assert evaluate(empty, 2).value == MultiPoly.const(ZZ, xvars(2), 1)

    def test_undecorated_sphere_vanishes(self):
        assert evaluate(sphere_movie(), 2).value.is_zero()

    def test_dotted_sphere_is_minus_one(self):
        assert evaluate(dotted_sphere(1), 2).value == MultiPoly.const(
            ZZ, xvars(2), -1
        )

    def test_dotted_sphere_N1(self):
        assert evaluate(dotted_sphere(1), 1).value == -X(1, 1)

    def test_undecorated_theta_vanishes(self):
        assert evaluate(theta_movie(), 2).value.is_zero()

    def test_theta_with_first_slot_dot(self):
        assert evaluate(theta_with_thin_dot("a"), 2).value == MultiPoly.const(
            ZZ, xvars(2), 1
        )

    def test_theta_with_second_slot_dot(self):
        assert evaluate(theta_with_thin_dot("b"), 2).value == MultiPoly.const(
            ZZ, xvars(2), -1
        )

    def test_torus_counts_pigments(self):
        assert evaluate(torus_movie(), 2).value == MultiPoly.const(ZZ, xvars(2), 2)
        assert evaluate(torus_movie(), 3).value == MultiPoly.const(ZZ, xvars(3), 3)

    def test_multiplicativity_disjoint_union(self):
        a = dotted_sphere(1)
        b = torus_movie()
        union = compose(a, b)
        for N in (2, 3):
            va = evaluate(a, N).value
            vb = evaluate(b, N).value
            assert evaluate(union, N).value == va * vb

    def test_corpus_evaluates_to_symmetric_polynomial(self):
        # the internal assertions of evaluate() do the real checking
        for mov in closed_corpus(seed=29, count=25):
            for N in (2, 3):
                evaluate(mov, N)

    def test_evaluate_requires_closed(self):
        b = MovieBuilder()
        b.cup(1)
        with pytest.raises(InputError):
            evaluate(b.movie(), 2)

    def test_family_matches_evaluate(self):
        movies = closed_corpus(seed=29, count=25) + [
            dotted_sphere(k) for k in range(4)
        ] + [torus_movie(), theta_with_thin_dot("a"), theta_with_thin_dot("b")]
        for N in (2, 3):
            assert evaluate_family(movies, N) == [evaluate(m, N).value for m in movies]

    def test_family_checks_each_value(self):
        mixed = SymPoly(power_sum(ZZ, ("x1",), 1) + power_sum(ZZ, ("x1",), 2), (1,))
        b = MovieBuilder()
        c = b.cup(1)
        b.decorate(c, mixed)
        b.cap(c)
        with pytest.raises(NonHomogeneous):
            evaluate(b.movie(), 2)
        with pytest.raises(NonHomogeneous):
            evaluate_family([dotted_sphere(1), b.movie()], 2)

    def test_family_rejects_open_movies_and_missing_edges(self):
        b = MovieBuilder()
        b.cup(1)
        with pytest.raises(InputError):
            evaluate_family([b.movie()], 2)
        dot = SymPoly(power_sum(ZZ, ("x1",), 1), (1,))
        stray = Movie(Web.empty(), (Cup(1, "c"), Decorate("d", dot), Cap("c")))
        with pytest.raises(PatternMismatch):
            evaluate(stray, 2)
        with pytest.raises(PatternMismatch):
            evaluate_family([stray], 2)


def _unions():
    """Closed corpus movies and 2- and 3-fold disjoint unions of them."""
    corpus = closed_corpus(seed=29, count=25)
    pairs = [compose(corpus[i], corpus[i + 1]) for i in range(0, 10, 2)]
    triples = [
        compose(compose(corpus[i], corpus[i + 1]), corpus[i + 2]) for i in range(10, 19, 3)
    ]
    return corpus + pairs + triples


def _inhomogeneous_sphere():
    mixed = SymPoly(power_sum(ZZ, ("x1",), 1) + power_sum(ZZ, ("x1",), 2), (1,))
    b = MovieBuilder()
    c = b.cup(1)
    b.decorate(c, mixed)
    b.cap(c)
    return b.movie()


class TestComponents:
    """``evaluate`` sums each connected component's colorings and multiplies."""

    def test_split_partitions_the_complex(self):
        for mov in _unions():
            F = compile_movie(mov)
            parts = _components(F)
            for attr in ("facets", "bindings", "vertices"):
                ids = [k for P in parts for k in getattr(P, attr)]
                assert sorted(ids) == sorted(getattr(F, attr))
            for P in parts:
                assert P.closed and P.facets
                for b in P.bindings.values():
                    assert {f for seg in b.segments for f in seg} <= set(P.facets)
                    assert set(b.endpoints) <= set(P.vertices)
                for v in P.vertices.values():
                    assert set(v.facets) <= set(P.facets)
                    assert set(v.bindings) <= set(P.bindings)

    def test_counts_multiply_and_degrees_add(self):
        for mov in _unions():
            F = compile_movie(mov)
            parts = _components(F)
            for N in (2, 3):
                count = 1
                for P in parts:
                    count *= len(list(enumerate_colorings(P, N)))
                assert len(list(enumerate_colorings(F, N))) == count
                assert degree(F, N) == sum(degree(P, N) for P in parts)

    def test_empty_foam(self):
        F = compile_movie(Movie(Web.empty(), ()))
        assert _components(F) == []
        assert evaluate(F, 3).value == MultiPoly.const(ZZ, xvars(3), 1)

    def test_seamed_foams_are_one_component(self):
        theta = compile_movie(theta_movie())
        assert theta.bindings and len(_components(theta)) == 1
        assoc = compile_movie(assoc_movie())
        assert assoc.bindings and assoc.vertices and len(_components(assoc)) == 1

    def test_against_unfactored_sum(self):
        foams = [compile_movie(mov) for mov in _unions()]
        assert sum(len(_components(F)) >= 2 for F in foams) >= 10
        assert max(len(_components(F)) for F in foams) >= 3
        for ring in (ZZ, GF(5)):
            for N in (2, 3, 4):
                for F in foams:
                    assert evaluate(F, N, ring).value == unfactored_value(F, N, ring)

    def test_inhomogeneous_component_raises(self):
        union = compose(dotted_sphere(1), _inhomogeneous_sphere())
        with pytest.raises(NonHomogeneous):
            evaluate(union, 2)

    def test_too_thick_component_gives_zero(self):
        too_thick = sphere_movie(3)
        for other in (dotted_sphere(1), torus_movie(), _inhomogeneous_sphere()):
            for union in (compose(other, too_thick), compose(too_thick, other)):
                assert evaluate(union, 2).value.is_zero()


# ---------------------------------------------------------------------------
# evaluate_family against evaluate on random decorated pairings
# ---------------------------------------------------------------------------


@st.composite
def _decoration(draw, ring, a, N):
    """A decoration of a thickness-``a`` facet: mostly one basis element,
    sometimes on both blocks, inhomogeneous, scaled, or zero."""
    inner = tuple(f"x{i}" for i in range(1, a + 1))
    kind = draw(st.sampled_from(["p", "e", "h", "outer", "mixed", "zero"]))
    if kind == "outer" and N > a:
        outer = tuple(f"y{i}" for i in range(1, N - a + 1))
        poly = power_sum(ring, inner, 1).extend(inner + outer) * power_sum(
            ring, outer, draw(st.integers(1, 2))
        ).extend(inner + outer)
        return SymPoly(poly, (a, N - a))
    if kind == "mixed":
        poly = power_sum(ring, inner, 1) + power_sum(ring, inner, 2)
    elif kind == "zero":
        poly = MultiPoly.zero(ring, inner)
    elif kind == "e":
        poly = elementary(ring, inner, draw(st.integers(1, a)))
    else:
        name = "power_sum" if kind in ("p", "outer") else "complete"
        poly = symmetric_basis(name, draw(st.integers(1, 2)), ring, inner).poly
    scale = draw(st.sampled_from([1, -1, 2, Fraction(1, 2)] if ring == QQ else [1, -1, 2]))
    return SymPoly(poly * scale, (a,))


@st.composite
def _redecorated(draw, bare, ring, N):
    """The undecorated movie ``bare`` with up to three random decorations."""
    webs = bare.slices()
    inserts: dict[int, list] = {}
    for _ in range(draw(st.integers(0, 3))):
        t = draw(st.integers(0, len(bare.moves)))
        edges = sorted(webs[t].edges)
        if not edges:
            continue
        e = draw(st.sampled_from(edges))
        dec = draw(_decoration(ring, webs[t].edges[e].thickness, N))
        inserts.setdefault(t, []).append(Decorate(e, dec))
    moves = []
    for t in range(len(bare.moves) + 1):
        moves += inserts.get(t, [])
        if t < len(bare.moves):
            moves.append(bare.moves[t])
    return Movie(bare.input_web, tuple(moves))


@st.composite
def decorated_pairings(draw):
    """(closed movies, N, ring): pairings of decorated copies of one or two skeletons."""
    ring = draw(st.sampled_from([ZZ, QQ, GF(5)]))
    N = draw(st.integers(2, 4))
    skeletons = [
        _strip_decorations(random_open_movie(
            random.Random(draw(st.integers(0, 10**6))),
            n_moves=draw(st.integers(1, 3 if N < 4 else 2)),
            max_thickness=2,
            ring=ring,
        ))[0]
        for _ in range(draw(st.integers(1, 2)))
    ]
    movies = []
    for _ in range(draw(st.integers(1, 4))):
        bare = draw(st.sampled_from(skeletons))
        left = draw(_redecorated(bare, ring, N))
        right = draw(_redecorated(bare, ring, N))
        movies.append(compose(left, mirror(right)))
    return movies, N, ring


def _outcome(fn):
    try:
        return "value", fn()
    except FoamlabError as exc:
        return "error", type(exc)


class TestFamilyAgainstEvaluate:
    @settings(max_examples=80, deadline=None)
    @given(decorated_pairings())
    def test_values_and_errors(self, case):
        movies, N, ring = case
        each = [_outcome(lambda m=m: evaluate(m, N, ring).value) for m in movies]
        for m, want in zip(movies, each):
            got = _outcome(lambda m=m: evaluate_family([m], N, ring)[0])
            assert got == want
        kind, got = _outcome(lambda: evaluate_family(movies, N, ring))
        if kind == "value":
            assert [("value", v) for v in got] == each
        else:
            assert ("error", got) in each

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_spheres_dotted_past_the_top_degree(self, N):
        # p_k on a thin or thick sphere for k = N - 1 .. N + 2: values of
        # positive degree, which a divided difference word applied in the
        # wrong order sends to 0
        movies = [
            dotted_sphere(k, a) for a in sorted({1, N // 2, N - 1}) for k in range(N - 1, N + 3)
        ]
        want = [evaluate(m, N).value for m in movies]
        assert evaluate_family(movies, N) == want
        assert sum(not v.is_zero() for v in want) >= 3


# ---------------------------------------------------------------------------
# shape tables against the per-coloring sum
# ---------------------------------------------------------------------------


def _table_foam(gens, i=0, j=0):
    """The undecorated pairing of generators ``i`` and ``j`` of ``gens``."""
    closed = compose(gens.movies[i], mirror(gens.movies[j]))
    return compile_movie(_strip_decorations(closed)[0])


@st.composite
def shape_tables(draw):
    """(undecorated closed foam, N, ring): a pairing of two generators of a
    circle, theta or zipped presentation at N <= 4."""
    ring = draw(st.sampled_from([ZZ, QQ, GF(5)]))
    N = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["circle", "theta", "zipped"]))
    if kind == "circle":
        gens = circle_presentation(draw(st.integers(1, N - 1)), N, ring)
    else:
        a = draw(st.integers(1, N - 1))
        b = draw(st.integers(1, N - a))
        web = theta_presentation if kind == "theta" else zipped_presentation
        gens = web(a, b, N, ring)
    n = len(gens.movies)
    return _table_foam(gens, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))), N, ring


@st.composite
def shape_maps(draw, F, N):
    """A dot-shape map on ``F``: each facet blank or a shape with parts at
    most 2 inside and at most 1 outside."""
    key = []
    for f in sorted(F.facets):
        a = F.facets[f].thickness
        lam = draw(st.lists(st.integers(0, 2), min_size=a, max_size=a))
        mu = draw(st.lists(st.integers(0, 1), min_size=N - a, max_size=N - a))
        shape = (tuple(sorted(lam, reverse=True)), tuple(sorted(mu, reverse=True)))
        if any(shape[0]) or any(shape[1]):
            key.append((f, shape))
    return tuple(key)


class TestShapeTableAgainstReference:
    """Table values against one ``ratfun_sum`` of every coloring's part."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_values_and_errors(self, data):
        F, N, ring = data.draw(shape_tables())
        basis = ElementaryBasis(xvars(N))
        table = _ShapeTable(F, N, ring, basis)
        for _ in range(data.draw(st.integers(1, 3))):
            decmap = data.draw(shape_maps(F, N))
            want = _outcome(lambda: shape_value_reference(F, N, ring, decmap))
            got = _outcome(lambda: basis.from_e(table.value(decmap)))
            assert got == want
            if got[0] == "value":
                assert table.value(decmap) == basis.to_e(want[1])

    def test_vanishing_map(self):
        # a thin sphere at N = 3 with one dot has degree -2: its value is 0
        for ring in (ZZ, QQ, GF(5)):
            F = _table_foam(circle_presentation(1, 3, ring))
            (f,) = F.facets
            table = _ShapeTable(F, 3, ring, ElementaryBasis(xvars(3)))
            one_dot = ((f, ((1,), (0, 0))),)
            assert table.value(one_dot).is_zero()
            assert shape_value_reference(F, 3, ring, one_dot).is_zero()
            two_dots = ((f, ((2,), (0, 0))),)
            assert table.value(two_dots) == MultiPoly.const(ring, table.basis.e_names, -1)
            assert shape_value_reference(F, 3, ring, two_dots) == -1

    def test_several_denominator_classes(self):
        # at N = 4 the circle's 6 colorings are one orbit of blocks (2, 2),
        # and the theta's and the zipped web's 12 one of blocks (2, 1, 1),
        # each summed by one pushforward; the 3-pigment necklace has two
        # orbits of 6 with a squared pair, lifted in 3 denominator classes
        cases = (
            (circle_presentation(2, 4), 4, [6], [(2, 2)], 0),
            (theta_presentation(1, 1, 4), 4, [12], [(2, 1, 1)], 0),
            (zipped_presentation(1, 1, 4), 4, [12], [(2, 1, 1)], 0),
            (necklace_presentation(3), 3, [6, 6], [], 3),
        )
        for gens, N, orbits, blocks, classes in cases:
            F = _table_foam(gens)
            basis = ElementaryBasis(xvars(N))
            table = _ShapeTable(F, N, ZZ, basis)
            assert [len(o) for o in table.orbits] == orbits
            assert [b for _, _, b in table.pushforwards] == blocks
            assert len(table.classes) == classes
            assert sorted(k for o in table.orbits for k in o) == list(
                range(len(table.colorings))
            )
            for dots in range(3):
                for f in sorted(F.facets):
                    a = F.facets[f].thickness
                    shape = ((dots,) + (0,) * (a - 1), (0,) * (N - a))
                    decmap = ((f, shape),) if dots else ()
                    assert basis.from_e(table.value(decmap)) == shape_value_reference(
                        F, N, ZZ, decmap
                    )

    def test_specializes_each_facet_shape_once(self, monkeypatch):
        F = _table_foam(theta_presentation(1, 1, 3))
        table = _ShapeTable(F, 3, ZZ, ElementaryBasis(xvars(3)))
        calls = []
        real = foameval._at_coloring
        monkeypatch.setattr(
            foameval, "_at_coloring", lambda *a: calls.append(a[1]) or real(*a)
        )
        f, g = sorted(F.facets)[:2]
        dot = lambda h: (h, ((1,) + (0,) * (F.facets[h].thickness - 1),  # noqa: E731
                             (0,) * (3 - F.facets[h].thickness)))
        table.value((dot(f),))
        table.value((dot(f), dot(g)))
        table.value((dot(g),))
        colors = lambda h: {table.colorings[k][h] for k in table.points}  # noqa: E731
        # one specialization per color a facet takes at the colorings the
        # values read (here the one representative), for each (facet, shape)
        assert table.points == [k for k, _, _ in table.pushforwards]
        assert len(calls) == len(colors(f)) + len(colors(g))


class TestShapeTableChecks:
    """Corrupted colored values: the table raises what its checks raise.

    One corrupted value, at an orbit's representative or at another
    coloring of the orbit, breaks equivariance.  A corruption of every
    coloring of an orbit, relabelled to each, keeps equivariance and is
    caught by the checks on the sum; so is any corruption of a one-coloring
    orbit, whose only coloring is lifted.
    """

    CHANGES = {
        # an extra (X1 - X2) in the denominator; at N = 3 the pigments 1, 2
        # of a thin sphere's representative are one block
        "denominator": lambda r, N, ring: r * RatFun(
            MultiPoly.const(ring, xvars(N), 1), {(0, 1): 1}
        ),
        # + X1 is not symmetric
        "asymmetric": lambda r, N, ring: r + RatFun(MultiPoly.var(ring, xvars(N), "X1")),
        # + p_1 is symmetric but of degree 2
        "degree": lambda r, N, ring: r + RatFun(power_sum(ring, xvars(N), 1)),
    }

    def corrupt(self, monkeypatch, change, where):
        """Apply ``change`` to the first representative (``where =
        "representative"``) or the first other coloring (``"member"``) that
        is colored, or to every coloring relabelled (``"orbit"``)."""
        real = foameval.colored_eval
        done = []

        def patched(F, c, N, ring=ZZ, walk=None):
            r = real(F, c, N, ring, walk)
            _, perm = foameval._orbit_order(c, sorted(F.facets), N)
            if where == "orbit":
                inverse = [perm.index(q) for q in range(N)]
                return change(r.relabel(inverse), N, ring).relabel(perm)
            if not done and (perm == list(range(N))) == (where == "representative"):
                done.append(c)
                return change(r, N, ring)
            return r

        monkeypatch.setattr(foameval, "colored_eval", patched)

    @staticmethod
    def raised(call):
        with pytest.raises(FoamlabError) as info:
            call()
        return type(info.value)

    @pytest.mark.parametrize("where", ["representative", "member"])
    @pytest.mark.parametrize("change", CHANGES)
    def test_evaluate_family(self, change, where, monkeypatch):
        self.corrupt(monkeypatch, self.CHANGES[change], where)
        assert self.raised(lambda: evaluate_family([sphere_movie()], 3)) is NotEquivariant

    @pytest.mark.parametrize("where", ["representative", "member"])
    @pytest.mark.parametrize("change", CHANGES)
    def test_gram_matrix(self, change, where, monkeypatch):
        self.corrupt(monkeypatch, self.CHANGES[change], where)
        assert self.raised(lambda: gram_matrix(circle_presentation(1, 3))) is NotEquivariant

    @pytest.mark.parametrize("where", ["representative", "member"])
    def test_squared_pair_orbit(self, where, monkeypatch):
        self.corrupt(monkeypatch, self.CHANGES["degree"], where)
        F = _table_foam(necklace_presentation(3))
        basis = ElementaryBasis(xvars(3))
        assert self.raised(lambda: _ShapeTable(F, 3, ZZ, basis)) is NotEquivariant

    @pytest.mark.parametrize("where", ["representative", "member", "orbit"])
    @pytest.mark.parametrize(
        "change,error",
        [("denominator", NotPolynomial), ("asymmetric", NotSymmetric), ("degree", NotPolynomial)],
    )
    def test_evaluate(self, change, error, where, monkeypatch):
        # evaluate sums the colored values with no orbit check: the extra
        # pole survives the sum, + X1 leaves it asymmetric, and + p_1
        # breaks the degree, which is typed NotPolynomial too
        self.corrupt(monkeypatch, self.CHANGES[change], where)
        assert self.raised(lambda: evaluate(sphere_movie(), 3)) is error

    @pytest.mark.parametrize(
        "change,error",
        [("denominator", NotPolynomial), ("asymmetric", NotEquivariant), ("degree", NotPolynomial)],
    )
    def test_whole_orbit(self, change, error, monkeypatch):
        # relabelled to every coloring, (X1 - X2) puts a pair of one block
        # in the representative's denominator, which sends the orbit to the
        # lift; + X1 is not invariant under the representative's stabilizer;
        # + p_1 stays a pushforward and breaks the degree
        self.corrupt(monkeypatch, self.CHANGES[change], "orbit")
        F = compile_movie(sphere_movie())
        basis = ElementaryBasis(xvars(3))
        if error is NotEquivariant:
            assert self.raised(lambda: _ShapeTable(F, 3, ZZ, basis)) is error
            return
        table = _ShapeTable(F, 3, ZZ, basis)
        assert [len(o) for o in table.orbits] == [3]
        assert len(table.pushforwards) == (change == "degree")
        assert self.raised(lambda: table.value(())) is error

    @pytest.mark.parametrize(
        "change,error",
        [("denominator", NotPolynomial), ("asymmetric", NotSymmetric),
         ("degree", NotPolynomial)],
    )
    def test_one_coloring_orbit(self, change, error, monkeypatch):
        # a thickness-3 sphere at N = 3 has one coloring, which is lifted
        self.corrupt(monkeypatch, self.CHANGES[change], "representative")
        F = compile_movie(sphere_movie(3))
        table = _ShapeTable(F, 3, ZZ, ElementaryBasis(xvars(3)))
        assert (table.orbits, table.pushforwards, len(table.classes)) == ([[0]], [], 1)
        assert self.raised(lambda: table.value(())) is error

    def test_uncorrupted_values_pass(self):
        assert evaluate_family([sphere_movie()], 3) == [MultiPoly.zero(ZZ, xvars(3))]
        gram_matrix(circle_presentation(1, 3))

    def test_degree_in_e_weighs_e_k_as_2k(self):
        E1, E2, E3 = (MultiPoly.var(ZZ, ("E1", "E2", "E3"), v) for v in ("E1", "E2", "E3"))
        w = _e_weights(3)
        _check_degree(E1 * E2 + E3 * 2, lambda: 6, w)
        _check_degree(MultiPoly.zero(ZZ, ("E1", "E2", "E3")), lambda: 6, w)
        with pytest.raises(NotPolynomial):
            _check_degree(E1 * E1 + E3, lambda: 6, w)
        with pytest.raises(NotPolynomial):
            _check_degree(E3, lambda: 4, w)


class TestDegree:
    def test_sphere_degree(self):
        for N in (1, 2, 3, 5):
            assert degree(sphere_movie(), N) == -2 * (N - 1)

    def test_theta_degree(self):
        assert degree(theta_movie(), 2) == -2
        assert degree(theta_movie(), 3) == -6

    def test_routes_agree_on_standard_movies(self):
        movies = [
            sphere_movie(),
            sphere_movie(2),
            torus_movie(),
            theta_movie(),
            theta_movie(1, 2),
            membrane_bubble_movie(),
            assoc_movie(),
            dotted_sphere(2),
            theta_with_thin_dot("a"),
        ]
        for mov in movies:
            for N in (2, 3, 4):
                assert degree(mov, N) == degree_incremental(mov, N), mov

    def test_routes_agree_on_corpus(self):
        for mov in closed_corpus(seed=31, count=30):
            for N in (2, 3):
                assert degree(mov, N) == degree_incremental(mov, N)

    def test_incremental_degree_matches_the_slice_walk(self):
        movies = (
            closed_corpus(seed=41, count=60, max_thickness=3)
            + spherical_corpus(seed=43, count=60, max_thickness=3)
            + [assoc_movie()]
        )
        for mov in movies:
            for N in (3, 4, 5):
                assert degree_incremental(mov, N) == degree_incremental_reference(mov, N), mov

    def test_trivially_decorated_degree_formula(self):
        for mov in closed_corpus(seed=37, count=15):
            undecorated = Movie(
                mov.input_web,
                tuple(m for m in mov.moves if type(m).__name__ != "Decorate"),
            )
            F = compile_movie(undecorated)
            for N in (2, 3):
                assert trivial_degree_check(F, N)

    def test_nonzero_evaluation_has_the_degree(self):
        for mov, N in [
            (dotted_sphere(1), 2),
            (torus_movie(), 2),
            (theta_with_thin_dot("a"), 2),
            (dotted_sphere(3), 2),
        ]:
            v = evaluate(mov, N).value
            if not v.is_zero():
                assert v.qdegree() == degree(mov, N)


class TestBubbles:
    def test_full_thickness_bubble_is_trivial(self):
        base = sphere_movie(2)
        R = SymPoly(MultiPoly.const(ZZ, (), 1), (0,))
        report = bubble_check(base, base.moves[0].out_edge, R, 2)
        assert report.ok, report.detail

    def test_sphere_bubble_linear(self):
        base = sphere_movie()
        R = symmetric_basis("power_sum", 1, ZZ, ("y1",))
        report = bubble_check(base, base.moves[0].out_edge, R, 2)
        assert report.ok, report.detail

    def test_sphere_bubble_quadratic_N3(self):
        base = sphere_movie()
        for kind, k in (("power_sum", 2), ("elementary", 1), ("elementary", 2)):
            R = symmetric_basis(kind, k, ZZ, ("y1", "y2"))
            report = bubble_check(base, base.moves[0].out_edge, R, 3)
            assert report.ok, report.detail

    def test_thick_facet_bubble_N3(self):
        base = sphere_movie(2)
        R = symmetric_basis("power_sum", 2, ZZ, ("y1",))
        report = bubble_check(base, base.moves[0].out_edge, R, 3)
        assert report.ok, report.detail

    def test_dotted_base(self):
        base = dotted_sphere(1)
        R = symmetric_basis("power_sum", 1, ZZ, ("y1",))
        report = bubble_check(base, base.moves[0].out_edge, R, 2)
        assert report.ok, report.detail

    def test_theta_base(self):
        base = theta_movie()
        thin_edge = base.moves[1].edge_a
        R = symmetric_basis("power_sum", 1, ZZ, ("y1", "y2"))
        report = bubble_check(base, thin_edge, R, 3)
        assert report.ok, report.detail

    def test_bubble_on_a_merged_circle(self):
        # the saddle merges the two cups' facets into one sphere
        base = sphere_via_saddle()
        merged = base.moves[2].out1
        for N in (2, 3):
            R = power_sum_p1(N - 1)
            report = bubble_check(base, merged, R, N)
            assert report.ok, (N, report.detail)

    def test_bubble_on_every_inner_slice_of_the_corpora(self):
        checks = 0
        movies = closed_corpus(5, 30, half_moves=4) + spherical_corpus(6, 20, half_moves=4)
        for mov in movies:
            for w in mov.slices()[1:-1]:
                if not w.edges:
                    continue
                edge = min(w.edges)
                a = w.edges[edge].thickness
                for N in (2, 3):
                    if N > a:
                        report = bubble_check(mov, edge, power_sum_p1(N - a), N)
                        assert report.ok, (mov, edge, N, report.detail)
                        checks += 1
        assert checks == 495

    def test_with_bubble_draws_ids_past_a_taken_pool(self):
        b = MovieBuilder()
        cups = [b.cup(1, f"bub{k}") for k in range(1, 100)]
        for c in cups:
            b.cap(c)
        base = b.movie()
        mov = with_bubble(base, "bub1", power_sum_p1(1), 2)
        mov.validate()
        assert mov.moves[1:3] == (
            Cup(1, "bub100"),
            Zip("bub1", "bub100", "bub101", "bub102", "bub103",
                "bub105", "bub105", "bub104", "bub104"),
        )
        # a full-thickness bubble is the identity and draws no id
        empty = SymPoly(MultiPoly.const(ZZ, (), 1), (0,))
        assert with_bubble(base, "bub1", empty, 1) is base

    def test_bubble_check_slices_its_base_once(self, monkeypatch):
        base = sphere_movie()
        sliced = []
        real = Movie.slices
        monkeypatch.setattr(Movie, "slices", lambda mov: sliced.append(mov is base) or real(mov))
        assert bubble_check(base, base.moves[0].out_edge, power_sum_p1(1), 2).ok
        # once for the facet edge and the bubble ids, once in compile_movie
        assert sliced.count(True) == 2

    def test_with_bubble_movie_is_valid(self):
        base = sphere_movie()
        R = symmetric_basis("power_sum", 1, ZZ, ("y1",))
        mov = with_bubble(base, base.moves[0].out_edge, R, 2)
        mov.validate()
        assert mov.is_closed()


# split_decoration's pieces (P terms on x1..xa, Q terms on x1..xb), in order,
# for e_k, h_k and p_k in a + b variables, keyed (kind, k, a, b)
SPLIT_PIECES = {
    ("e", 2, 1, 1): [({(1,): 1}, {(1,): 1})],
    ("e", 2, 1, 2): [({(1,): 1}, {(0, 1): 1, (1, 0): 1}), ({(0,): 1}, {(1, 1): 1})],
    ("e", 2, 2, 1): [({(1, 1): 1}, {(0,): 1}), ({(0, 1): 1, (1, 0): 1}, {(1,): 1})],
    ("e", 3, 1, 1): [],
    ("e", 3, 1, 2): [({(1,): 1}, {(1, 1): 1})],
    ("e", 3, 2, 1): [({(1, 1): 1}, {(1,): 1})],
    ("h", 2, 1, 1): [({(0,): 1}, {(2,): 1}), ({(1,): 1}, {(1,): 1}), ({(2,): 1}, {(0,): 1})],
    ("h", 2, 1, 2): [
        ({(0,): 1}, {(0, 2): 1, (1, 1): 1, (2, 0): 1}),
        ({(1,): 1}, {(0, 1): 1, (1, 0): 1}),
        ({(2,): 1}, {(0, 0): 1}),
    ],
    ("h", 2, 2, 1): [
        ({(0, 0): 1}, {(2,): 1}),
        ({(0, 1): 1, (1, 0): 1}, {(1,): 1}),
        ({(0, 2): 1, (2, 0): 1}, {(0,): 1}),
        ({(1, 1): 1}, {(0,): 1}),
    ],
    ("h", 3, 1, 1): [
        ({(0,): 1}, {(3,): 1}), ({(1,): 1}, {(2,): 1}),
        ({(2,): 1}, {(1,): 1}), ({(3,): 1}, {(0,): 1}),
    ],
    ("h", 3, 1, 2): [
        ({(0,): 1}, {(0, 3): 1, (1, 2): 1, (2, 1): 1, (3, 0): 1}),
        ({(1,): 1}, {(0, 2): 1, (1, 1): 1, (2, 0): 1}),
        ({(2,): 1}, {(0, 1): 1, (1, 0): 1}),
        ({(3,): 1}, {(0, 0): 1}),
    ],
    ("h", 3, 2, 1): [
        ({(0, 0): 1}, {(3,): 1}),
        ({(0, 1): 1, (1, 0): 1}, {(2,): 1}),
        ({(0, 2): 1, (2, 0): 1}, {(1,): 1}),
        ({(0, 3): 1, (3, 0): 1}, {(0,): 1}),
        ({(1, 1): 1}, {(1,): 1}),
        ({(1, 2): 1, (2, 1): 1}, {(0,): 1}),
    ],
    ("p", 2, 1, 1): [({(2,): 1}, {(0,): 1}), ({(0,): 1}, {(2,): 1})],
    ("p", 2, 1, 2): [({(2,): 1}, {(0, 0): 1}), ({(0,): 1}, {(0, 2): 1, (2, 0): 1})],
    ("p", 2, 2, 1): [({(0, 2): 1, (2, 0): 1}, {(0,): 1}), ({(0, 0): 1}, {(2,): 1})],
    ("p", 3, 1, 1): [({(3,): 1}, {(0,): 1}), ({(0,): 1}, {(3,): 1})],
    ("p", 3, 1, 2): [({(3,): 1}, {(0, 0): 1}), ({(0,): 1}, {(0, 3): 1, (3, 0): 1})],
    ("p", 3, 2, 1): [({(0, 3): 1, (3, 0): 1}, {(0,): 1}), ({(0, 0): 1}, {(3,): 1})],
}
KINDS = {"e": "elementary", "h": "complete", "p": "power_sum"}


def recombined(pieces, a, b, ring=ZZ):
    """The sum of ``P(x_1..x_a) * Q(x_{a+1}..x_{a+b})`` over split pieces."""
    allv = facet_vars(a + b)
    total = MultiPoly.zero(ring, allv)
    for pa, pb in pieces:
        total = total + pa.poly.extend(allv) * pb.poly.rename(allv[a:]).extend(allv)
    return total


class TestDotMigration:
    @pytest.mark.parametrize("case", sorted(SPLIT_PIECES))
    def test_split_pieces_are_pinned(self, case):
        kind, k, a, b = case
        R = symmetric_basis(KINDS[kind], k, ZZ, facet_vars(a + b))
        got = [(pa.poly, pa.blocks, pb.poly, pb.blocks) for pa, pb in split_decoration(R, a, b)]
        assert got == [
            (MultiPoly(ZZ, facet_vars(a), p), (a,), MultiPoly(ZZ, facet_vars(b), q), (b,))
            for p, q in SPLIT_PIECES[case]
        ]

    def test_zero_decoration_has_no_pieces(self):
        assert split_decoration(SymPoly(MultiPoly.zero(ZZ, facet_vars(3)), (3,)), 1, 2) == []

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_symmetric_pieces_recombine(self, data):
        n = data.draw(st.integers(2, 4), label="a + b")
        a = data.draw(st.integers(1, n - 1), label="a")
        ring = data.draw(st.sampled_from([ZZ, QQ, GF(3)]), label="ring")
        seeds = data.draw(st.lists(
            st.tuples(st.tuples(*[st.integers(0, 3)] * n), st.integers(-4, 4)),
            max_size=4,
        ), label="symmetrized terms")
        terms = collections.Counter()
        for exp, c in seeds:
            for perm in set(itertools.permutations(exp)):
                terms[perm] += c
        R = SymPoly(MultiPoly(ZZ, facet_vars(n), terms), (n,))
        pieces = split_decoration(R, a, n - a, ring)
        assert recombined(pieces, a, n - a, ring) == R.poly.map_coefficients(
            ring, ring.normalize
        )
        # one piece per orbit of the first block, each a monomial symmetric
        # polynomial
        orbits = [max(pa.poly.terms) for pa, _ in pieces]
        assert len(set(orbits)) == len(orbits)
        assert all(set(pa.poly.terms.values()) == {1} for pa, _ in pieces)

    def test_split_recombines(self):
        for kind, k in (("power_sum", 2), ("elementary", 2), ("complete", 2)):
            R = symmetric_basis(kind, k, ZZ, ("x1", "x2", "x3"))
            pieces = split_decoration(R, 1, 2)
            allv = ("x1", "x2", "x3")
            total = MultiPoly.zero(ZZ, allv)
            for pa, pb in pieces:
                left = pa.poly.extend(allv)
                right = pb.poly.rename(("x2", "x3")).extend(allv)
                total = total + left * right
            assert total == R.poly

    def test_migration_through_digon(self):
        for N in (2, 3):
            for kind, k in (("power_sum", 1), ("power_sum", 2), ("elementary", 2)):
                R = symmetric_basis(kind, k, ZZ, ("x1", "x2"))
                report = dot_migration_check(1, 1, R, N)
                assert report.ok, (N, kind, k, report.detail)

    def test_migration_uneven_digon(self):
        R = symmetric_basis("elementary", 1, ZZ, ("x1", "x2", "x3"))
        report = dot_migration_check(1, 2, R, 3)
        assert report.ok, report.detail

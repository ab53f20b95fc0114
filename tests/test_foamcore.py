"""Tests for webs, movies and compiled foam complexes.

The Euler characteristics of the compiled complexes are checked against
hand-computed cell counts for standard closed surfaces (sphere, torus,
higher genus, theta foam, membrane bubble), and the slice tallies against
the compiled topology on randomized corpora.
"""

import gc
import hashlib
import importlib
import itertools
import json
import random
import sys
import time
import weakref
from dataclasses import replace
from typing import get_args

import pytest
from hypothesis import given, settings, strategies as st

from foamlab.corpus import basic_open_movies, closed_corpus, random_open_movie, spherical_corpus
from foamlab.errors import (
    BoundaryMismatch,
    FoamlabError,
    PatternMismatch,
    SeamSignInconsistent,
    WebInvalid,
)
from foamlab.foameval import evaluate
from foamlab.foamcore import (
    Assoc,
    BasicMove,
    Binding,
    Cap,
    Coassoc,
    Cup,
    Decorate,
    DigonCap,
    DigonCup,
    Edge,
    EulerWalk,
    Facet,
    FoamComplex,
    Isotopy,
    Movie,
    MovieBuilder,
    Saddle,
    Unzip,
    Vertex,
    Web,
    Zip,
    _colex_subsets,
    _strip_decorations,
    apply_move,
    bichrome_data,
    check_planarity,
    compile_movie,
    compose,
    enumerate_colorings,
    local_counts,
    mirror,
    monochrome_euler,
    validate_web,
)
from foamlab.polyring import ZZ, MultiPoly, symmetric_basis
from oracle import (
    apply_assoc_reference,
    apply_coassoc_reference,
    apply_move_reference,
    bichrome_data_reference,
    colex_subsets_reference,
    compile_movie_reference,
    enumerate_colorings_reference,
    mirror_reference,
    monochrome_euler_reference,
    slices_reference,
)


# ---------------------------------------------------------------------------
# standard movies
# ---------------------------------------------------------------------------


def sphere_movie(thickness=1):
    b = MovieBuilder()
    c = b.cup(thickness)
    b.cap(c)
    return b.movie()


def sphere_via_saddle():
    b = MovieBuilder()
    c1 = b.cup(1)
    c2 = b.cup(1)
    out, _ = b.saddle(c1, c2)
    b.cap(out)
    return b.movie()


def torus_movie():
    b = MovieBuilder()
    c = b.cup(1)
    o1, o2 = b.saddle(c, c)
    out, _ = b.saddle(o1, o2)
    b.cap(out)
    return b.movie()


def genus_movie(g):
    b = MovieBuilder()
    c = b.cup(1)
    for _ in range(g):
        o1, o2 = b.saddle(c, c)
        c, _ = b.saddle(o1, o2)
    b.cap(c)
    return b.movie()


def theta_movie(a=1, b_th=1):
    b = MovieBuilder()
    t = b.cup(a + b_th)
    dc = b.digon_cup(t, a, b_th)
    out = b.digon_cap(dc.edge_a, dc.edge_b)
    b.cap(out.out_edge)
    return b.movie()


def membrane_bubble_movie():
    """Two spheres sharing a thick disc membrane."""
    b = MovieBuilder()
    x = b.cup(1)
    y = b.cup(1)
    z = b.zip(x, y)
    uz = b.unzip(z.thick_edge)
    b.cap(uz.out_a)
    b.cap(uz.out_b)
    return b.movie()


def assoc_movie():
    """A closed foam containing one assoc and one coassoc singular point."""
    b = MovieBuilder()
    x = b.cup(1)
    y = b.cup(1)
    z1 = b.zip(x, y)  # thick edge of thickness 2
    z = b.cup(1)
    z2 = b.zip(z1.thick_edge, z)  # thickness 3, cuts the thick edge
    b.assoc(z2.out_a1)
    b.coassoc(z2.out_a2)
    uz = b.unzip(z2.thick_edge)
    b.cap(uz.out_a)
    dcap = b.digon_cap(z1.out_b1, z2.out_b1)
    b.cap(dcap.out_edge)
    return b.movie()


def dotted(movie_fn, power=1, **kw):
    b = MovieBuilder()
    c = b.cup(1)
    b.decorate(c, symmetric_basis("power_sum", power, ZZ, ("x1",)))
    b.cap(c)
    return b.movie()


# ---------------------------------------------------------------------------
# webs
# ---------------------------------------------------------------------------


class TestWebValidation:
    def test_empty_and_circle_valid(self):
        validate_web(Web.empty())
        validate_web(Web.circle(3))

    def test_flow_violation(self):
        w = Web(
            {
                "a": Edge("a", 1, None, "m"),
                "b": Edge("b", 1, None, "m"),
                "t": Edge("t", 3, "m", None),
            },
            {"m": Vertex("m", "merge", ("a", "b"), ("t",))},
        )
        # half-attached edges are reported first; make them loops instead
        w = Web(
            {
                "a": Edge("a", 1, "m", "m"),
                "t": Edge("t", 3, "m", "m"),
            },
            {"m": Vertex("m", "merge", ("a", "a"), ("t",))},
        )
        with pytest.raises(WebInvalid):
            validate_web(w)

    def test_half_attached(self):
        w = Web({"a": Edge("a", 1, "m", None)}, {})
        with pytest.raises(WebInvalid):
            validate_web(w)

    def test_bad_thickness(self):
        with pytest.raises(WebInvalid):
            validate_web(Web.circle(0))

    def test_dangling_slot(self):
        w = Web(
            {"c": Edge("c", 1, None, None)},
            {"m": Vertex("m", "merge", ("c", "c"), ("c",))},
        )
        with pytest.raises(WebInvalid):
            validate_web(w)

    def test_digon_web_valid(self):
        # split feeding a merge through two thin edges
        w = Web(
            {
                "lo": Edge("lo", 2, "m", "s"),
                "a": Edge("a", 1, "s", "m"),
                "b": Edge("b", 1, "s", "m"),
            },
            {
                "s": Vertex("s", "split", ("lo",), ("a", "b")),
                "m": Vertex("m", "merge", ("a", "b"), ("lo",)),
            },
        )
        validate_web(w)

    def test_planarity_of_digon_web(self):
        w = Web(
            {
                "lo": Edge("lo", 2, "m", "s"),
                "a": Edge("a", 1, "s", "m"),
                "b": Edge("b", 1, "s", "m"),
            },
            {
                "s": Vertex("s", "split", ("lo",), ("a", "b")),
                "m": Vertex("m", "merge", ("a", "b"), ("lo",)),
            },
        )
        # counterclockwise rotations of the planar picture
        assert check_planarity(w, {"s": ("lo", "a", "b"), "m": ("lo", "b", "a")})
        # the twisted rotation system closes up into a torus instead
        assert not check_planarity(w, {"s": ("lo", "a", "b"), "m": ("a", "b", "lo")})

    def test_rotation_system_must_order_every_vertex(self):
        # two thin cups zipped (a split and a merge vertex on a digon) and
        # a circle
        b = MovieBuilder()
        b.zip(b.cup(1), b.cup(1))
        stray = b.cup(1)
        w = b.web
        (merge,) = [v for v in w.vertices.values() if v.kind == "merge"]
        (split,) = [v for v in w.vertices.values() if v.kind == "split"]
        (lo,), (a, b_) = split.ins, split.outs
        good = {split.id: (lo, a, b_), merge.id: (lo, b_, a)}
        assert check_planarity(w, good)
        bad = [
            {merge.id: good[merge.id]},  # the split vertex has no rotation
            {**good, "v99": good[merge.id]},  # no such vertex
            {**good, split.id: (stray, *good[split.id][1:])},  # edge not at the vertex
            {**good, split.id: good[split.id][:2]},  # an edge left out
        ]
        for rotations in bad:
            with pytest.raises(FoamlabError, match="rotation"):
                check_planarity(w, rotations)


# ---------------------------------------------------------------------------
# moves and movies
# ---------------------------------------------------------------------------


class TestMoves:
    def test_every_slice_of_standard_movies_is_valid(self):
        for mov in [
            sphere_movie(),
            sphere_via_saddle(),
            torus_movie(),
            genus_movie(2),
            theta_movie(),
            theta_movie(1, 2),
            membrane_bubble_movie(),
            assoc_movie(),
        ]:
            mov.validate()
            assert mov.is_closed()

    def test_cap_requires_circle(self):
        b = MovieBuilder()
        x = b.cup(1)
        y = b.cup(1)
        z = b.zip(x, y)
        with pytest.raises(PatternMismatch):
            apply_move(b.web, Cap(z.thick_edge))

    def test_zip_unzip_roundtrip_on_circles(self):
        b = MovieBuilder()
        x = b.cup(1)
        y = b.cup(2)
        before = b.web
        z = b.zip(x, y)
        assert b.web.edges[z.thick_edge].thickness == 3
        uz = b.unzip(z.thick_edge)
        after = b.web
        assert after.edges[uz.out_a].is_circle
        assert after.edges[uz.out_b].is_circle
        assert sorted(e.thickness for e in after.edges.values()) == sorted(
            e.thickness for e in before.edges.values()
        )

    def test_digon_roundtrip_on_circle(self):
        b = MovieBuilder()
        t = b.cup(3)
        dc = b.digon_cup(t, 1, 2)
        assert b.web.edges[dc.edge_a].thickness == 1
        assert b.web.edges[dc.edge_b].thickness == 2
        out = b.digon_cap(dc.edge_a, dc.edge_b)
        assert b.web.edges[out.out_edge].is_circle
        assert b.web.edges[out.out_edge].thickness == 3

    def test_saddle_cases(self):
        # merge two circles
        b = MovieBuilder()
        c1, c2 = b.cup(1), b.cup(1)
        out, none = b.saddle(c1, c2)
        assert none is None and b.web.edges[out].is_circle
        # split one circle
        o1, o2 = b.saddle(out, out)
        assert b.web.edges[o1].is_circle and b.web.edges[o2].is_circle

    def test_saddle_thickness_mismatch(self):
        b = MovieBuilder()
        c1, c2 = b.cup(1), b.cup(2)
        with pytest.raises(PatternMismatch):
            apply_move(b.web, Saddle(c1, c2, "bad", None))

    def test_unzip_requires_merge_split_pattern(self):
        b = MovieBuilder()
        t = b.cup(3)
        dc = b.digon_cup(t, 1, 2)
        # the thin digon edges run split-to-merge, not merge-to-split
        with pytest.raises(PatternMismatch):
            apply_move(b.web, Unzip(dc.edge_a, "u", "v"))

    def test_assoc_pattern(self):
        mov = assoc_movie()
        mov.validate()

    def test_with_changes_reads_each_argument_once(self):
        w = Web({k: Edge(k, 1, None, None) for k in "abc"})
        new = w.with_changes(
            drop_edges=(e for e in ["b", "c"]),
            add_edges=(Edge(k, 2, None, None) for k in "de"),
        )
        assert list(new.edges) == ["a", "d", "e"]
        w = zipped_circles()
        assert list(w.with_changes(drop_vertices=iter(["m", "s"])).vertices) == []

    def test_decorate_keeps_web(self):
        b = MovieBuilder()
        c = b.cup(2)
        w0 = b.web
        b.decorate(c, symmetric_basis("elementary", 1, ZZ, ("x1", "x2")))
        assert b.web == w0


# ---------------------------------------------------------------------------
# reassociation against the two-pattern references
# ---------------------------------------------------------------------------


def three_cup_webs():
    """The merge/split webs of three cups of thickness 1-2, zipped as
    (x+y)+z and as x+(y+z)."""
    for thicknesses in itertools.product((1, 2), repeat=3):
        for left in (True, False):
            b = MovieBuilder()
            x, y, z = (b.cup(t) for t in thicknesses)
            if left:
                b.zip(b.zip(x, y).thick_edge, z)
            else:
                b.zip(x, b.zip(y, z).thick_edge)
            yield b.web


def coassoc_webs():
    """Hand-built webs, most of them invalid, around two split vertices
    joined by ``g``: one per coassociation branch and per error text."""
    edges = {
        "a": Edge("a", 3, "p", "s1"),
        "g": Edge("g", 2, "s1", "s2"),
        "z": Edge("z", 1, "s1", "q"),
        "x": Edge("x", 1, "s2", "q"),
        "y": Edge("y", 1, "s2", "q"),
        "c": Edge("c", 1, None, None),
    }
    s1 = Vertex("s1", "split", ("a",), ("g", "z"))
    s2 = Vertex("s2", "split", ("g",), ("x", "y"))
    for v1, v2 in (
        (s1, s2),
        (replace(s1, outs=("z", "g")), s2),
        (s1, replace(s2, kind="merge")),
        (s1, replace(s2, ins=("a",))),
        (replace(s1, outs=("a", "z")), s2),
        (s1, replace(s2, outs=("x", "z"))),
    ):
        yield Web(edges, {"s1": v1, "s2": v2})


def turned_round(w):
    kinds = {"merge": "split", "split": "merge"}
    return Web(
        {k: Edge(e.id, e.thickness, e.head, e.tail) for k, e in w.edges.items()},
        {k: Vertex(v.id, kinds[v.kind], v.outs, v.ins) for k, v in w.vertices.items()},
    )


def applied(rule, w, m):
    """The web ``rule`` makes, with its edge and vertex order, or the type
    and text of the error it raised."""
    try:
        new = rule(w, m)
    except (PatternMismatch, LookupError, ValueError) as exc:
        return type(exc), str(exc)
    return new, list(new.edges), list(new.vertices)


REASSOC_TEXTS = {
    Assoc: {
        "assoc middle edge must join two vertices",
        "assoc requires two merge vertices",
        "assoc: middle edge must be the full output of v1",
        "assoc: middle edge must feed v2",
        "assoc requires three distinct thin edges",
    },
    Coassoc: {
        "coassoc middle edge must join two vertices",
        "coassoc requires two split vertices",
        "coassoc: middle edge must be the full input of v2",
        "coassoc: middle edge must come from v1",
        "coassoc requires three distinct thin edges",
    },
}


@pytest.mark.parametrize(
    "move, reference", [(Assoc, apply_assoc_reference), (Coassoc, apply_coassoc_reference)]
)
class TestReassociationAgainstReference:
    def test_every_edge_of_the_three_cup_webs(self, move, reference):
        valid = 0
        for w in three_cup_webs():
            for e in w.edges:
                m = move(e, "g")
                got = applied(apply_move, w, m)
                assert got == applied(reference, w, m), (w.edges, e)
                if isinstance(got[0], Web):
                    validate_web(got[0])
                    valid += 1
        assert valid == 16

    def test_hand_built_webs_hit_every_error_text(self, move, reference):
        webs = list(coassoc_webs())
        if move is Assoc:
            webs = [turned_round(w) for w in webs]
        texts = set()
        for w in webs:
            for e in w.edges:
                m = move(e, "h")
                got = applied(apply_move, w, m)
                assert got == applied(reference, w, m), (w.edges, w.vertices, e)
                if got[0] is PatternMismatch:
                    texts.add(got[1])
        assert REASSOC_TEXTS[move] <= texts


# ---------------------------------------------------------------------------
# every move rule against the one-rule-per-move references
# ---------------------------------------------------------------------------


def zipped_circles(a=1, b=1):
    """Two circles of thicknesses ``a`` and ``b`` zipped into one merge
    ``m`` (inputs ``x``, ``y``) and one split ``s`` (outputs ``x``, ``y``)
    joined by the thick edge ``t``."""
    return apply_move(
        Web({"p": Edge("p", a, None, None), "q": Edge("q", b, None, None)}),
        Zip("p", "q", "m", "s", "t", "x", "x", "y", "y"),
    )


def digon_circle():
    """A circle ``c`` of thickness 3 with a digon ``x`` (1), ``y`` (2) from
    the split ``s`` to the merge ``m``."""
    return apply_move(Web.circle(3), DigonCup("c", 1, 2, "s", "m", "x", "y", "c", "c"))


def _revised(w, vid, **changes):
    return Web(w.edges, {**w.vertices, vid: replace(w.vertices[vid], **changes)})


MOVE_ERRORS = [
    (Web.circle(2, "t"), Unzip("t", "a", "b"),
     "unzip requires an edge between two vertices"),
    (digon_circle(), Unzip("x", "a", "b"), "unzip requires a merge-to-split edge"),
    (_revised(zipped_circles(), "m", outs=("x",)), Unzip("t", "a", "b"),
     "unzip pattern does not match"),
    (_revised(zipped_circles(1, 2), "s", outs=("y", "x")), Unzip("t", "a", "b"),
     "unzip slot thicknesses do not match"),
    (Web({"p": Edge("p", 1, None, None), "q": Edge("q", 1, None, None)}),
     DigonCap("p", "q", "o"), "digon-cap requires a parallel digon pair"),
    (_revised(digon_circle(), "s", kind="merge"), DigonCap("x", "y", "o"),
     "digon-cap requires split-to-merge digon"),
    (digon_circle(), DigonCap("y", "x", "o"), "digon-cap slot order does not match"),
    (Web({"p": Edge("p", 1, None, None), "q": Edge("q", 1, None, None)}),
     Zip("p", "q", "m", "s", "t", "x", "x2", "y", "y"), "zip on a circle must reuse one arc id"),
    (Web({"p": Edge("p", 1, None, None), "q": Edge("q", 1, None, None)}),
     Zip("p", "q", "m", "s", "t", "x", "x", "y", "y2"), "zip on a circle must reuse one arc id"),
    (Web.circle(3), DigonCup("c", 1, 2, "s", "m", "x", "y", "lo", "hi"),
     "digon-cup on a circle must reuse one arc id"),
]


@pytest.mark.parametrize("w, move, text", MOVE_ERRORS)
def test_move_pattern_errors(w, move, text):
    with pytest.raises(PatternMismatch) as err:
        apply_move(w, move)
    assert str(err.value) == text
    assert applied(apply_move, w, move) == applied(apply_move_reference, w, move)


def id_reuse_movies():
    """Closed movies whose moves give an output the id of an edge they
    consume: a digon cut into a circle and capped back onto it, a merge
    of two circles into the first, and two circles zipped and unzipped
    with their ids swapped each time."""
    yield Movie(Web.empty(), (
        Cup(3, "c"), DigonCup("c", 1, 2, "s", "m", "x", "y", "c", "c"),
        DigonCap("x", "y", "c"), Cap("c"),
    ))
    yield Movie(Web.empty(), (Cup(1, "a"), Cup(1, "b"), Saddle("a", "b", "a", None), Cap("a")))
    yield Movie(Web.empty(), (
        Cup(1, "p"), Cup(2, "q"), Zip("p", "q", "m", "s", "t", "q", "q", "p", "p"),
        Unzip("t", "p", "q"), Cap("p"), Cap("q"),
    ))


def open_streams():
    """Open movies of five random moves of thickness at most 3."""
    for seed in range(8):
        rng = random.Random(seed)
        for _ in range(5):
            yield random_open_movie(rng, n_moves=5, max_thickness=3)


def assert_matches_references(mov):
    """The slices, compiled foam and mirror of ``mov`` and the compiled foam
    of its mirror equal the references', dict orders included."""
    slices = mov.slices()
    ref = slices_reference(mov)
    assert [(w, list(w.edges), list(w.vertices)) for w in slices] == [
        (w, list(w.edges), list(w.vertices)) for w in ref
    ]
    rev = mirror(mov)
    assert rev == mirror_reference(mov)
    for m in (mov, rev):
        got, want = compile_movie(m), compile_movie_reference(m)
        assert got == want
        assert [list(s) for s in got.edge_facets] == [list(s) for s in want.edge_facets]


class TestMovesAgainstReference:
    @pytest.mark.parametrize("spherical", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_corpus(self, seed, spherical):
        corpus = spherical_corpus if spherical else closed_corpus
        for mov in corpus(seed, 6, half_moves=5, max_thickness=3):
            assert_matches_references(mov)

    def test_open_streams(self):
        for mov in open_streams():
            assert_matches_references(mov)

    def test_standard_and_basic_movies(self):
        movies = [
            sphere_movie(2), sphere_via_saddle(), torus_movie(), genus_movie(2),
            theta_movie(1, 2), membrane_bubble_movie(), assoc_movie(),
            TestMovieAlgebra.circle_meets_interval(True),
            TestMovieAlgebra.circle_meets_interval(False),
        ]
        for a, b in ((1, 1), (1, 2), (2, 1)):
            movies += basic_open_movies(a, b).values()
        for mov in movies:
            assert_matches_references(mov)

    def test_id_reuse(self):
        for mov in id_reuse_movies():
            mov.validate()
            assert mov.is_closed()
            assert_matches_references(mov)

    def test_every_move_on_every_edge_of_the_slices(self):
        """Each move kind on every edge (pair) of every slice of the open
        streams, as the package and the reference apply it: every move class
        that takes an edge of the slice (all but cup and isotopy)."""
        seen = set()
        dot = symmetric_basis("power_sum", 1, ZZ, ("x1",))
        for mov in open_streams():
            for w in mov.slices():
                for e, f in itertools.product(sorted(w.edges), repeat=2):
                    for m in (
                        Cap(e), Decorate(e, dot),
                        Saddle(e, f, "u1", "u2"), Saddle(e, f, "u1", None),
                        Unzip(e, "u1", "u2"), DigonCap(e, f, "u1"),
                        Zip(e, f, "v1", "v2", "u0", "u1", "u1", "u2", "u2"),
                        DigonCup(e, 1, 1, "v1", "v2", "u0", "u3", "u1", "u1"),
                        Assoc(e, "u1"), Coassoc(e, "u1"),
                    ):
                        got = applied(apply_move, w, m)
                        assert got == applied(apply_move_reference, w, m), (w.edges, m)
                        seen.add((type(m), got[1] if isinstance(got[1], str) else "ok"))
        assert len(seen) >= 20
        assert {cls for cls, _ in seen} == set(get_args(BasicMove)) - {Cup, Isotopy}


def test_assoc_movie_record_and_value_are_pinned():
    """Digests taken from the two-pattern reassociation: the compiled record
    and each coloring's value of the foam with one assoc and one coassoc."""
    mov = assoc_movie()
    record = json.dumps(compile_movie(mov).to_record(), sort_keys=True)
    assert hashlib.sha256(record.encode()).hexdigest() == (
        "52dbed740ffd8f82d8290498d0403027d7b6fd4c1d7216300e0f96dcbfc31c5c"
    )
    for N, digest in (
        (3, "4cfc9d6e1dc11f4593e9c12a9c522c5c085244d1f3853ad4766a09fcfa46c190"),
        (4, "05f535a6059b90545e670e7326a44decd774f3f5202930584710587c3b6d9c93"),
    ):
        result = evaluate(mov, N)
        assert result.value.is_zero()
        assert hashlib.sha256(repr(result.breakdown).encode()).hexdigest() == digest


class TestMovieAlgebra:
    @pytest.mark.parametrize("algebra", [lambda a: compose(a, Movie(Web.empty(), ())), mirror])
    def test_compose_and_mirror_slice_the_first_movie_once(self, algebra, monkeypatch):
        a = sphere_via_saddle()
        sliced = []
        real = Movie.slices
        monkeypatch.setattr(Movie, "slices", lambda mov: sliced.append(mov is a) or real(mov))
        algebra(a)
        assert sliced.count(True) == 1

    def test_mirror_involution_on_corpus(self):
        for mov in closed_corpus(seed=7, count=25):
            back = mirror(mirror(mov))
            assert back.moves == mov.moves
            assert back.input_web == mov.input_web

    def test_mirror_reverses_boundaries(self):
        b = MovieBuilder()
        b.cup(2)
        mov = b.movie()
        rev = mirror(mov)
        assert rev.input_web == mov.output_web
        assert rev.output_web == mov.input_web
        rev.validate()

    def test_compose_requires_matching_boundary(self):
        thin = MovieBuilder()
        thin.cup(1)
        thick = MovieBuilder()
        thick.cup(2)
        with pytest.raises(BoundaryMismatch):
            compose(thin.movie(), mirror(thick.movie()))

    def test_compose_renames_clashing_ids(self):
        b = MovieBuilder()
        b.cup(1)
        half = b.movie()
        closed = compose(half, mirror(half))
        closed.validate()
        assert closed.is_closed()
        assert len(closed.moves) == 2

    @staticmethod
    def circle_meets_interval(circle_first: bool) -> Movie:
        """A split-off circle merged into a digon edge (design stream 2, movie 40)."""
        b = MovieBuilder()
        thin = b.cup(2)
        thick = b.cup(3)
        _, circle = b.saddle(thin, thin)
        dc = b.digon_cup(thick, 2, 1)
        if circle_first:
            b.saddle(circle, dc.edge_a)
        else:
            b.saddle(dc.edge_a, circle)
        return b.movie()

    def test_mirror_of_circle_interval_merge(self):
        mov = self.circle_meets_interval(circle_first=True)
        rev = mirror(mov)
        rev.validate()
        closed = compose(mov, mirror(mov))
        assert evaluate(closed, 3).value == MultiPoly.const(ZZ, ("X1", "X2", "X3"), -3)
        # the same foam with the merge written the other way round
        other = self.circle_meets_interval(circle_first=False)
        for N in (3, 4, 5):
            assert evaluate(closed, N).value == evaluate(compose(other, mirror(other)), N).value
        assert mirror(rev).slices() == mov.slices()

    def test_self_pairings_of_seeded_streams(self):
        seen = 0
        for seed in range(40):
            rng = random.Random(seed)
            for _ in range(5):
                mov = random_open_movie(rng, n_moves=5, max_thickness=3)
                if not any(isinstance(mv, Saddle) for mv in mov.moves):
                    continue
                seen += any(isinstance(mv, DigonCup) for mv in mov.moves)
                closed = compose(mov, mirror(mov))
                compile_movie(closed)
                evaluate(closed, 3)
        assert seen >= 40

    def test_mirror_preserves_compiled_euler_numbers(self):
        for mov in closed_corpus(seed=11, count=15):
            F = compile_movie(mov)
            G = compile_movie(mirror(mov))
            assert sorted(
                (f.thickness, f.chi) for f in F.facets.values()
            ) == sorted((f.thickness, f.chi) for f in G.facets.values())


# ---------------------------------------------------------------------------
# compilation oracles
# ---------------------------------------------------------------------------


class TestCompileOracles:
    def test_sphere(self):
        F = compile_movie(sphere_movie())
        assert [f.chi for f in F.facets.values()] == [2]
        assert not F.bindings and not F.vertices

    def test_sphere_via_saddle(self):
        F = compile_movie(sphere_via_saddle())
        assert [f.chi for f in F.facets.values()] == [2]

    def test_torus(self):
        F = compile_movie(torus_movie())
        assert [f.chi for f in F.facets.values()] == [0]

    def test_genus_two(self):
        F = compile_movie(genus_movie(2))
        assert [f.chi for f in F.facets.values()] == [-2]

    def test_theta(self):
        F = compile_movie(theta_movie())
        chis = sorted((f.thickness, f.chi) for f in F.facets.values())
        assert chis == [(1, 1), (1, 1), (2, 1)]
        assert len(F.bindings) == 1
        (b,) = F.bindings.values()
        assert b.is_circle and not b.endpoints
        assert not F.vertices

    def test_membrane_bubble(self):
        F = compile_movie(membrane_bubble_movie())
        chis = sorted((f.thickness, f.chi) for f in F.facets.values())
        assert chis == [(1, 1), (1, 1), (2, 1)]
        assert len(F.bindings) == 1
        (b,) = F.bindings.values()
        assert b.is_circle

    def test_assoc_foam_structure(self):
        F = compile_movie(assoc_movie())
        assert len(F.vertices) == 2
        assert len(F.bindings) == 4
        assert all(not b.is_circle for b in F.bindings.values())
        assert all(len(b.endpoints) == 2 for b in F.bindings.values())
        for v in F.vertices.values():
            assert len(v.bindings) == 4

    def test_decoration_recorded_on_facet(self):
        F = compile_movie(dotted(sphere_movie, power=2))
        (f,) = F.facets.values()
        assert len(f.decorations) == 1
        assert f.decorations[0].poly.qdegree() == 4

    def test_compile_is_deterministic(self):
        mov = assoc_movie()
        a = compile_movie(mov).to_record()
        b = compile_movie(mov).to_record()
        assert a == b


# ---------------------------------------------------------------------------
# colorings
# ---------------------------------------------------------------------------


class TestColorings:
    def test_theta_counts(self):
        F = compile_movie(theta_movie())
        assert len(list(enumerate_colorings(F, 2))) == 2
        assert len(list(enumerate_colorings(F, 3))) == 6

    def test_theta_first_coloring_colex(self):
        F = compile_movie(theta_movie())
        first = next(enumerate_colorings(F, 3))
        thick = [f for f in F.facets.values() if f.thickness == 2][0].id
        assert first[thick] == frozenset({1, 2})

    def test_circle_sphere_counts(self):
        F = compile_movie(sphere_movie(2))
        assert len(list(enumerate_colorings(F, 3))) == 3

    def test_too_thick_yields_nothing(self):
        F = compile_movie(sphere_movie(3))
        assert list(enumerate_colorings(F, 2)) == []

    @pytest.mark.parametrize("N", range(9))
    def test_colex_subsets_match_the_sorted_list(self, N):
        for k in range(N + 2):
            assert list(_colex_subsets(range(1, N + 1), k)) == colex_subsets_reference(N, k)

    @pytest.mark.parametrize("N", range(2, 7))
    def test_colorings_match_the_unnarrowed_enumerator(self, N):
        # the same colorings in the same order as trying every k-subset
        size = dict(count=8, half_moves=5, max_thickness=3)
        movies = closed_corpus(seed=N, **size) + spherical_corpus(seed=N, **size)
        for mov in movies:
            F = compile_movie(mov)
            assert list(enumerate_colorings(F, N)) == enumerate_colorings_reference(F, N)

    def test_first_coloring_of_a_thick_sphere_is_immediate(self):
        # C(60, 40) subsets are never listed: the first one comes at once
        F = compile_movie(sphere_movie(40))
        start = time.perf_counter()
        first = next(enumerate_colorings(F, 60))
        assert time.perf_counter() - start < 1.0
        assert first == {"f1": frozenset(range(1, 41))}

    def test_disjoint_union_constraint(self):
        F = compile_movie(membrane_bubble_movie())
        for c in enumerate_colorings(F, 3):
            (b,) = F.bindings.values()
            assert c[b.sideA] | c[b.sideB] == c[b.thick]
            assert not (c[b.sideA] & c[b.sideB])


# ---------------------------------------------------------------------------
# colored Euler data
# ---------------------------------------------------------------------------


def spherical_tally(F, c, i, j):
    cij = local_counts(F, c, i, j)
    cji = local_counts(F, c, j, i)
    return (
        cij.A + cji.A + cij.U + cji.U + cij.Lam + cji.Lam
        - cij.Z - cji.Z + cij.V + cji.V - cij.Y - cji.Y
    ), cij, cji


class TestColoredEuler:
    def test_membrane_bubble_surfaces(self):
        F = compile_movie(membrane_bubble_movie())
        for c in enumerate_colorings(F, 2):
            # each pigment sweeps a sphere; the bichrome surface is a sphere
            assert monochrome_euler(F, c, 1) == 2
            assert monochrome_euler(F, c, 2) == 2
            chi, theta_plus = bichrome_data(F, c, 1, 2)
            assert chi == 2
            assert theta_plus in (0, 1)

    def test_theta_surfaces(self):
        F = compile_movie(theta_movie())
        for c in enumerate_colorings(F, 2):
            assert monochrome_euler(F, c, 1) == 2
            assert monochrome_euler(F, c, 2) == 2
            chi, _ = bichrome_data(F, c, 1, 2)
            assert chi == 2

    def test_parity_on_corpus(self):
        for mov in closed_corpus(seed=3, count=20):
            F = compile_movie(mov)
            for c in enumerate_colorings(F, 2):
                assert monochrome_euler(F, c, 1) % 2 == 0
                assert monochrome_euler(F, c, 2) % 2 == 0
                chi, _ = bichrome_data(F, c, 1, 2)
                assert chi % 2 == 0

    def test_spherical_tally_matches_euler(self):
        for mov in spherical_corpus(seed=5, count=30):
            F = compile_movie(mov)
            for N in (2, 3):
                for c in enumerate_colorings(F, N):
                    for i in range(1, N + 1):
                        for j in range(i + 1, N + 1):
                            chi, _ = bichrome_data(F, c, i, j)
                            tally, _, _ = spherical_tally(F, c, i, j)
                            assert chi == tally, (mov, c, i, j)

    def test_saddle_tally_correction(self):
        for mov in closed_corpus(seed=9, count=30):
            F = compile_movie(mov)
            for c in enumerate_colorings(F, 2):
                chi, _ = bichrome_data(F, c, 1, 2)
                cij, cji = local_counts(F, c, 1, 2), local_counts(F, c, 2, 1)
                tally, _, _ = spherical_tally(F, c, 1, 2)
                assert chi == tally - cij.S - cji.S

    def test_cup_cap_balance_spherical(self):
        for mov in spherical_corpus(seed=13, count=30):
            F = compile_movie(mov)
            for c in enumerate_colorings(F, 2):
                for i in (1, 2):
                    cups = sum(
                        1
                        for tr in F.traces
                        if tr.kind == "cup" and i in c[tr.facets[0]]
                    )
                    caps = sum(
                        1
                        for tr in F.traces
                        if tr.kind == "cap" and i in c[tr.facets[0]]
                    )
                    assert cups == caps

    def test_cup_cap_cross_balance_spherical(self):
        for mov in spherical_corpus(seed=17, count=30):
            F = compile_movie(mov)
            for c in enumerate_colorings(F, 2):
                cij, cji = local_counts(F, c, 1, 2), local_counts(F, c, 2, 1)
                assert cij.U + cji.A == cji.U + cij.A

    def test_zip_digon_balance_any_foam(self):
        for mov in closed_corpus(seed=19, count=30):
            F = compile_movie(mov)
            for c in enumerate_colorings(F, 2):
                cij = local_counts(F, c, 1, 2)
                cji = local_counts(F, c, 2, 1)
                assert cij.Z + cij.V == cij.Y + cij.Lam
                assert cji.Z + cji.V == cji.Y + cji.Lam

    def test_membrane_bubble_sign_bit(self):
        # zip's first argument is the slot-1 thin facet: with pigment 1 on it
        # the single separating circle is positive
        F = compile_movie(membrane_bubble_movie())
        for c in enumerate_colorings(F, 2):
            (b,) = F.bindings.values()
            chi, theta_plus = bichrome_data(F, c, 1, 2)
            assert theta_plus == (1 if 1 in c[b.sideA] else 0)

    def test_assoc_foam_colored_euler(self):
        F = compile_movie(assoc_movie())
        for c in enumerate_colorings(F, 3):
            for i in (1, 2, 3):
                assert monochrome_euler(F, c, i) % 2 == 0
            for i, j in ((1, 2), (1, 3), (2, 3)):
                chi, _ = bichrome_data(F, c, i, j)
                tally, _, _ = spherical_tally(F, c, i, j)
                assert chi == tally


def outcome(call):
    """The value of ``call()``, or the type and text of the error it raised."""
    try:
        return call()
    except (SeamSignInconsistent, ValueError) as exc:
        return type(exc), str(exc)


def reference_pairs(F, c, N):
    """Each pair's ``(i, j, chi, theta_plus)`` by the oracle's per-pair scan, in
    lexicographic order, up to and including the first pair that raises."""
    out = []
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            got = outcome(lambda: bichrome_data_reference(F, c, i, j))
            if isinstance(got[0], type):
                return out + [got]
            out.append((i, j) + got)
    return out


def walk_pairs(walk, c, N):
    """The walk's pairs of one coloring, ended by the error that stops them."""
    out = []
    _, pairs = walk.read(walk.types(c, N))
    try:
        out.extend(pairs)
    except SeamSignInconsistent as exc:
        out.append((type(exc), str(exc)))
    return out


def assert_walk_matches_scans(F, N):
    walk = EulerWalk(F)
    for c in enumerate_colorings(F, N):
        chis, _ = walk.read(walk.types(c, N))
        assert chis == [monochrome_euler_reference(F, c, i) for i in range(1, N + 1)]
        assert walk_pairs(walk, c, N) == reference_pairs(F, c, N), c
        for i in range(1, N + 1):
            assert monochrome_euler(F, c, i) == chis[i - 1]
            for j in range(1, N + 1):
                assert outcome(lambda: bichrome_data(F, c, i, j)) == outcome(
                    lambda: bichrome_data_reference(F, c, i, j)
                )


class TestEulerWalk:
    """One walk per coloring against the oracle's per-pigment and per-pair scans."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), N=st.integers(2, 5), spherical=st.booleans())
    def test_corpus(self, seed, N, spherical):
        corpus = spherical_corpus if spherical else closed_corpus
        (mov,) = corpus(seed=seed, count=1)
        assert_walk_matches_scans(compile_movie(mov), N)

    @pytest.mark.parametrize("N", [2, 3, 4])
    @pytest.mark.parametrize(
        "movie", [membrane_bubble_movie, assoc_movie, torus_movie, lambda: theta_movie(1, 2)]
    )
    def test_standard_foams(self, movie, N):
        assert_walk_matches_scans(compile_movie(movie()), N)

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize(
        "segments, endpoints",
        [
            ([("f1", "f2", "f3"), ("f2", "f1", "f3")], ()),
            ([("f1", "f2", "f3")], ("v1", "v2")),
            ([("f1", "f2", "f3")], ("v1", "v1")),
        ],
    )
    def test_seam_errors(self, segments, endpoints, N):
        assert_walk_matches_scans(seam_complex(segments, endpoints), N)

    def test_pigments_are_numbered_from_one(self):
        F = compile_movie(theta_movie())
        c = next(enumerate_colorings(F, 2))
        with pytest.raises(ValueError, match="numbered from 1"):
            monochrome_euler(F, c, 0)
        with pytest.raises(ValueError, match="numbered from 1"):
            bichrome_data(F, c, 0, 1)

    def test_a_pair_error_waits_for_its_pair(self):
        # the walk reads every pigment before any pair raises
        F = seam_complex([("f1", "f2", "f3")], endpoints=("v1", "v2"))
        walk = EulerWalk(F)
        chis, pairs = walk.read(walk.types(SEAM_COLORING, 3))
        assert chis == [2, 2, 0]
        with pytest.raises(SeamSignInconsistent, match="odd valence at vertex v1"):
            next(pairs)


# ---------------------------------------------------------------------------
# re-importing the package
# ---------------------------------------------------------------------------


def _ours(name):
    return name == "foamlab" or name.startswith("foamlab.")


def _drop_foamlab():
    for name in [m for m in sys.modules if _ours(m)]:
        del sys.modules[name]


def test_reimport_releases_the_previous_copy():
    # A process-wide cache (typing.Union's, for a union of move classes) that
    # holds foamlab classes would keep every imported copy alive.
    saved = {m: mod for m, mod in sys.modules.items() if _ours(m)}
    try:
        _drop_foamlab()
        importlib.import_module("foamlab.cli")
        ref = weakref.ref(sys.modules["foamlab.polyring"].MultiPoly)
        _drop_foamlab()
        importlib.import_module("foamlab.cli")
        gc.collect()
        assert ref() is None
    finally:
        _drop_foamlab()
        sys.modules.update(saved)


def seam_complex(segments, endpoints=()):
    """Two thin facets and a thick one along one hand-built seam binding.

    The Euler characteristics keep every monochrome surface even, so the
    evaluation of a coloring reaches the seam-sign bookkeeping.
    """
    facets = {
        "f1": Facet("f1", 1, 2, ()),
        "f2": Facet("f2", 1, 2, ()),
        "f3": Facet("f3", 2, 1 if endpoints else 2, ()),
    }
    binding = Binding("b1", not endpoints, tuple(segments), tuple(endpoints), False)
    return FoamComplex(facets, {"b1": binding}, {}, (), True)


SEAM_COLORING = {"f1": frozenset({1}), "f2": frozenset({2}), "f3": frozenset({1, 2})}


class TestSeamSigns:
    def test_mixed_signs_on_one_separating_circle(self):
        F = seam_complex([("f1", "f2", "f3"), ("f2", "f1", "f3")])
        with pytest.raises(SeamSignInconsistent, match="mixed seam signs"):
            bichrome_data(F, SEAM_COLORING, 1, 2)

    def test_odd_separating_seam_valence_at_a_vertex(self):
        F = seam_complex([("f1", "f2", "f3")], endpoints=("v1", "v2"))
        with pytest.raises(SeamSignInconsistent, match="odd valence"):
            bichrome_data(F, SEAM_COLORING, 1, 2)

    @pytest.mark.parametrize("endpoints", [(), ("v1", "v2")])
    def test_evaluate_passes_the_error_through(self, endpoints):
        segments = [("f1", "f2", "f3")] + ([] if endpoints else [("f2", "f1", "f3")])
        F = seam_complex(segments, endpoints)
        with pytest.raises(FoamlabError) as info:
            evaluate(F, 2)
        assert isinstance(info.value, SeamSignInconsistent)


def test_stripped_movie_compiles_to_the_same_facets():
    for mov in closed_corpus(seed=21, count=30):
        F = compile_movie(mov)
        stripped, decorations = _strip_decorations(mov)
        bare = compile_movie(stripped)
        placed: dict = {}
        for t, edge, dec in decorations:
            placed.setdefault(bare.edge_facets[t][edge], []).append(str(dec))
        assert placed == {
            f.id: [str(d) for d in f.decorations] for f in F.facets.values() if f.decorations
        }
        assert [(f.id, f.thickness, f.chi) for f in bare.facets.values()] == [
            (f.id, f.thickness, f.chi) for f in F.facets.values()
        ]
        assert (bare.bindings, bare.vertices) == (F.bindings, F.vertices)

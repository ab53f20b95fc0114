"""Tests for the textual foam description format."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foamlab.dsl import (
    dumps,
    normalize,
    parse,
    parse_ring,
    parse_scalar,
    parse_witt_spec,
    witt_spec_text,
)
from foamlab.errors import InputError
from foamlab.foameval import evaluate
from foamlab.polyring import GF, MultiPoly, QQ, WittSequence, ZZ

SPHERES = """
movie sphere on empty {
  cup(1) -> c1;
  cap(1) on c1;
}

movie dotted_sphere on empty {
  cup(1) -> c1;
  decorate c1 with p_1;
  cap(1) on c1;
}
"""

KITCHEN_SINK = """
# a file exercising every declaration form
poly twodots = p_1^2;
poly mix = e_2 + 3*h_1*p_1 - hat(p_2);

web theta {
  edge t thickness 2 orient up;
  edge a thickness 1;
  edge b thickness 1;
  vertex v1 split (t; a, b);
  vertex v2 merge (a, b; t);
}

params rich {
  ring Q; N 2; s 1/4;
  nu1 lin:1/2; nu2 lin:-1/3; nu3 tab:[0,0,0,0];
  t1 1; t2 -2; t3 1/2;
  spherical true;
}

movie bubble on empty {
  cup(2) -> c;
  digon_cup(1,1) on c;
  decorate e4 with twodots;
  digon_cap on (e4, e5);
  cap(2) on e6;
}
"""


class TestParsing:
    def test_declarations_collected(self):
        ff = parse(KITCHEN_SINK)
        assert set(ff.webs) == {"theta"}
        assert set(ff.movies) == {"bubble"}
        assert set(ff.polys) == {"twodots", "mix"}
        assert set(ff.params) == {"rich"}

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            parse("poly a = p_1; poly a = p_2;")

    def test_unknown_poly_reference_rejected(self):
        with pytest.raises(InputError, match="unknown"):
            parse("poly a = b + 1;")

    def test_unknown_web_reference_rejected(self):
        with pytest.raises(InputError, match="undeclared"):
            parse("movie m on nowhere { cup(1) -> c; cap(1) on c; }")

    def test_unknown_move_has_position(self):
        with pytest.raises(InputError, match=r"line 1, column 20"):
            parse("movie m on empty { flip(1); }")

    def test_truncated_input_has_position(self):
        with pytest.raises(InputError, match=r"line 1, column 30"):
            parse("movie m on empty { cup(1) -> }")

    def test_bad_character_has_position(self):
        with pytest.raises(InputError, match=r"line 2"):
            parse("poly a = p_1;\npoly b = @;")

    def test_comments_and_whitespace_ignored(self):
        ff1 = parse("poly a = p_1;  # trailing\n# whole line\npoly b = a;")
        ff2 = parse("poly a=p_1;poly b=a;")
        assert ff1 == ff2


class TestRoundTrip:
    @pytest.mark.parametrize("text", [SPHERES, KITCHEN_SINK])
    def test_parse_print_parse_is_identity(self, text):
        ff = parse(text)
        assert parse(dumps(ff)) == ff

    @pytest.mark.parametrize("text", [SPHERES, KITCHEN_SINK])
    def test_normalize_is_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once


class TestBuilders:
    def test_sphere_evaluates_to_zero(self):
        ff = parse(SPHERES)
        assert evaluate(ff.build_movie("sphere"), 2).value.is_zero()

    def test_dotted_sphere_evaluates_to_minus_one(self):
        ff = parse(SPHERES)
        value = evaluate(ff.build_movie("dotted_sphere"), 2).value
        assert value == MultiPoly.const(value.ring, value.vars, -1)

    def test_web_built_and_validated(self):
        ff = parse(KITCHEN_SINK)
        w = ff.build_web("theta")
        assert sorted(w.edges) == ["a", "b", "t"]
        assert w.edges["t"].thickness == 2
        assert len(w.vertices) == 2

    def test_empty_web(self):
        assert parse("").webs == {} and parse(SPHERES).build_web("empty").edges == {}

    def test_movie_on_declared_web(self):
        text = """
        web twocirc { edge a thickness 1; edge b thickness 1; }
        movie join on twocirc { saddle on (a, b); }
        """
        m = parse(text).build_movie("join")
        assert len(m.moves) == 1

    def test_hat_decoration_needs_pigment_count(self):
        text = "movie m on empty { cup(1) -> c; decorate c with hat(p_1); cap(1) on c; }"
        ff = parse(text)
        with pytest.raises(InputError, match="pigments"):
            ff.build_movie("m")
        # hat(p_1) on a thin cup is the complementary power sum
        value = evaluate(ff.build_movie("m", 2), 2).value
        assert value == MultiPoly.const(value.ring, value.vars, 1)

    def test_poly_reference_used_in_decoration(self):
        ff = parse(KITCHEN_SINK)
        m = ff.build_movie("bubble", 3)
        assert evaluate(m, 3) is not None

    def test_stale_edge_reference_rejected(self):
        text = "movie m on empty { cup(1) -> c; cap(1) on c; cap(1) on c; }"
        with pytest.raises(InputError, match="current slice"):
            parse(text).build_movie("m")

    def test_cap_thickness_mismatch_rejected(self):
        text = "movie m on empty { cup(2) -> c; cap(1) on c; }"
        with pytest.raises(InputError, match="thickness"):
            parse(text).build_movie("m")

    def test_global_alphabet_cannot_decorate(self):
        text = "movie m on empty { cup(1) -> c; decorate c with X_1; cap(1) on c; }"
        with pytest.raises(InputError, match="global alphabet"):
            parse(text).build_movie("m", 2)

    def test_zero_thickness_edge_rejected(self):
        ff = parse("web w { edge a thickness 0; }")
        with pytest.raises(InputError, match="thickness"):
            ff.build_web("w")


class TestParams:
    def test_rich_pack(self):
        P = parse(KITCHEN_SINK).build_params("rich")
        assert P.ring == QQ and P.N == 2
        assert P.s == Fraction(1, 4)
        assert P.t1 == 1 and P.t2 == -2 and P.t3 == Fraction(1, 2)
        assert P.nu1(1) == 1 and P.nu2(2) == -1
        assert P.nu3(0) == 0 and P.nu3(2) == 0
        assert P.spherical is True

    @pytest.mark.parametrize("value", ["x", "1/2", "lin:1"])
    def test_non_integer_n_is_an_input_error(self, value):
        ff = parse(f"params p {{ ring Q; N {value}; }}")
        with pytest.raises(InputError, match="N must be an integer"):
            ff.build_params("p")

    @pytest.mark.parametrize(
        "entry,field",
        [("s 1/2", "s"), ("t3 1/2", "t3"), ("nu1 lin:1/2", "nu1"), ("nu3 tab:[0,1/2]", "nu3")],
    )
    def test_value_outside_the_ring_is_an_input_error(self, entry, field):
        ff = parse(f"params p {{ ring Z; N 2; {entry}; }}")
        with pytest.raises(InputError, match=f"^{field} .* Z: 1/2 is not an integer"):
            ff.build_params("p")

    def test_parse_ring(self):
        assert parse_ring("Z") == ZZ
        assert parse_ring("Q") == QQ
        assert parse_ring("F5") == GF(5)
        with pytest.raises(InputError):
            parse_ring("R")

    def test_parse_scalar(self):
        assert parse_scalar("7") == 7
        assert parse_scalar("-3/4") == Fraction(-3, 4)
        with pytest.raises(InputError):
            parse_scalar("x")

    def test_witt_spec_round_trip(self):
        for spec in ("lin:2", "lin:-1/3", "tab:[0,1,2,3,4]"):
            seq = parse_witt_spec(spec, QQ)
            again = parse_witt_spec(witt_spec_text(seq), QQ)
            assert all(seq(n) == again(n) for n in range(-1, seq.n_max + 1))

    def test_witt_linear_text(self):
        assert witt_spec_text(WittSequence.linear(ZZ, 2)) == "lin:2"


# the words and symbols of the two example files, for token-level fuzzing
VOCABULARY = sorted(set(re.findall(r"\w+|->|\S", KITCHEN_SINK + SPHERES)))

arbitrary_text = st.one_of(
    st.text(max_size=200),
    st.lists(st.sampled_from(VOCABULARY), max_size=80).map(" ".join),
    st.tuples(st.integers(0, len(KITCHEN_SINK)), st.integers(0, len(KITCHEN_SINK))).map(
        lambda ij: KITCHEN_SINK[: min(ij)] + KITCHEN_SINK[max(ij):]
    ),
)


class TestFuzz:
    @given(arbitrary_text)
    @settings(max_examples=200, deadline=None)
    def test_parse_returns_or_raises_input_error(self, text):
        try:
            ff = parse(text)
        except InputError:
            return
        for name in ff.params:
            try:
                ff.build_params(name)
            except InputError:
                pass

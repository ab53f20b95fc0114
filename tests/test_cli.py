"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from foamlab.cli import laurent_text, main, parse_presentation
from foamlab.errors import InputError
from foamlab.polyring import ZZ, qbinom_laurent

FIXTURES = """
movie sphere on empty {
  cup(1) -> c1;
  cap(1) on c1;
}

movie dotted_sphere on empty {
  cup(1) -> c1;
  decorate c1 with p_1;
  cap(1) on c1;
}

movie thick_sphere on empty {
  cup(2) -> c1;
  decorate c1 with p_2;
  cap(2) on c1;
}
"""


@pytest.fixture
def foam_file(tmp_path):
    p = tmp_path / "fixtures.foam"
    p.write_text(FIXTURES)
    return str(p)


def run(capsys, *argv):
    """Invoke the entry point; return (exit_code, stdout, stderr)."""
    code = 0
    try:
        main(list(argv))
    except SystemExit as exc:
        code = exc.code or 0
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_dotted_sphere_is_minus_one(self, capsys, foam_file):
        code, out, _ = run(capsys, "eval", "--N", "2", f"{foam_file}#dotted_sphere")
        assert (code, out.strip()) == (0, "-1")

    def test_undecorated_sphere_is_zero(self, capsys, foam_file):
        code, out, _ = run(capsys, "eval", "--N", "2", f"{foam_file}#sphere")
        assert (code, out.strip()) == (0, "0")

    def test_json_record(self, capsys, foam_file):
        code, out, _ = run(
            capsys, "eval", "--N", "2", "--json", f"{foam_file}#dotted_sphere"
        )
        rec = json.loads(out)
        assert code == 0
        assert rec["schema"] == "foamlab.v1"
        assert rec["value"] == "-1"

    def test_unknown_movie_is_input_error(self, capsys, foam_file):
        code, _, err = run(capsys, "eval", "--N", "2", f"{foam_file}#nope")
        assert code == 2 and "nope" in err

    def test_missing_file_is_input_error(self, capsys):
        code, _, _ = run(capsys, "eval", "--N", "2", "does_not_exist.foam#m")
        assert code == 2

    def test_missing_separator_is_input_error(self, capsys, foam_file):
        code, _, _ = run(capsys, "eval", "--N", "2", foam_file)
        assert code == 2

    def test_bad_flag_is_usage_error(self, capsys, foam_file):
        code, _, _ = run(capsys, "eval", "--frobnicate", f"{foam_file}#sphere")
        assert code == 2


class TestDegree:
    def test_dotted_sphere_degree_zero(self, capsys, foam_file):
        code, out, _ = run(capsys, "degree", "--N", "2", f"{foam_file}#dotted_sphere")
        assert (code, out.strip()) == (0, "0")

    def test_sphere_degree(self, capsys, foam_file):
        code, out, _ = run(capsys, "degree", "--N", "2", f"{foam_file}#sphere")
        assert (code, out.strip()) == (0, "-2")


class TestRank:
    def test_circle_one_pigments_two(self, capsys):
        code, out, _ = run(capsys, "rank", "--web", "circle:1", "--N", "2")
        assert (code, out.strip()) == (0, "q^-1 + q")

    def test_circle_two_of_four(self, capsys):
        code, out, _ = run(capsys, "rank", "--web", "circle:2", "--N", "4")
        assert (code, out.strip()) == (0, "q^-4 + q^-2 + 2 + q^2 + q^4")

    def test_json_output_is_deterministic(self, capsys):
        args = ("rank", "--web", "circle:1", "--N", "3", "--json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        rec = json.loads(out1)
        assert rec["rank"] == sorted(map(list, qbinom_laurent(3, 1).items()))

    def test_unknown_family_is_input_error(self, capsys):
        code, _, _ = run(capsys, "rank", "--web", "pentagon:1", "--N", "2")
        assert code == 2


class TestGram:
    def test_circle_entries(self, capsys):
        code, out, _ = run(capsys, "gram", "--web", "circle:1", "--N", "2", "--json")
        rec = json.loads(out)
        assert code == 0
        assert rec["entries"] == [["0", "-1"], ["-1", "-X1 - X2"]]
        assert rec["degrees"] == [-1, 1]


class TestMoyCheck:
    @pytest.mark.parametrize("relation,n", [("circle", 3), ("digon", 2)])
    def test_relations_pass(self, capsys, relation, n):
        code, out, _ = run(
            capsys, "moy-check", "--relation", relation, "--N", str(n)
        )
        assert code == 0 and out.startswith("pass")

    def test_bad_square_reports_skip(self, capsys):
        code, out, _ = run(
            capsys, "moy-check", "--relation", "bad_square", "--N", "2", "--json"
        )
        rec = json.loads(out)
        assert code == 0 and "skip" in rec["detail"]


class TestInduced:
    def test_differential_matrix_over_f3(self, capsys):
        code, out, _ = run(
            capsys, "induced", "--op", "d", "--web", "circle:1", "--N", "2",
            "--ring", "F3", "--t1", "1", "--t2", "2", "--t3", "0",
            "--base", "phi0", "--json",
        )
        rec = json.loads(out)
        assert code == 0
        assert rec["matrix"] == [["0", "0"], ["2", "0"]]

    def test_phi0_rejects_non_differential(self, capsys):
        code, _, _ = run(
            capsys, "induced", "--op", "h", "--web", "circle:1", "--N", "2",
            "--ring", "F3", "--base", "phi0",
        )
        assert code == 2

    def test_bad_operator_index_is_input_error(self, capsys):
        code, _, err = run(
            capsys, "induced", "--op", "L:x", "--web", "circle:1", "--N", "2",
        )
        assert code == 2
        assert "bad operator index" in err and "Traceback" not in err


class TestAct:
    def test_witt_on_dotted_sphere(self, capsys, foam_file):
        code, out, _ = run(
            capsys, "act", "--op", "L:1", "--N", "2", "--nu3", "lin:1/5",
            "--json", f"{foam_file}#dotted_sphere",
        )
        rec = json.loads(out)
        assert code == 0 and rec["command"] == "act"

    def test_witt_image_is_pinned(self, capsys, foam_file):
        args = ("act", "--op", "L:2", "--N", "3", "--nu3", "lin:1/5")
        target = f"{foam_file}#thick_sphere"
        code, out, _ = run(capsys, *args, "--json", target)
        assert code == 0
        assert out == (
            '{"N":3,"command":"act","op":"L:2","ring":"Q","schema":"foamlab.v1",'
            '"terms":[["2","f1:x1^2*y1^2 + x2^2*y1^2"],'
            '["1","f1:x1^2*x2*y1 + x1*x2^2*y1"],["2","f1:x1^2*x2^2"],'
            '["1","f1:x1^3*y1 + x2^3*y1"],["-1","f1:x1^4 + x2^4"]]}\n'
        )
        code, out, _ = run(capsys, *args, target)
        assert code == 0
        assert out == (
            "(2)*[f1:x1^2*y1^2 + x2^2*y1^2] + (1)*[f1:x1^2*x2*y1 + x1*x2^2*y1]"
            " + (2)*[f1:x1^2*x2^2] + (1)*[f1:x1^3*y1 + x2^3*y1]"
            " + (-1)*[f1:x1^4 + x2^4]\n"
        )

    def test_unknown_operator_is_input_error(self, capsys, foam_file):
        code, _, _ = run(
            capsys, "act", "--op", "q", "--N", "2", f"{foam_file}#sphere"
        )
        assert code == 2


class TestCheckSuites:
    @pytest.mark.parametrize(
        "args",
        [
            ("--suite", "euler", "--count", "8"),
            ("--suite", "commutators", "--nmax", "2"),
            ("--suite", "compat", "--count", "6"),
            ("--suite", "pdg"),
        ],
    )
    def test_suites_pass(self, capsys, args):
        code, out, _ = run(capsys, "check", *args)
        assert code == 0
        assert out.strip().splitlines()[-1] == "pass"


class TestHelpers:
    def test_laurent_text(self):
        assert laurent_text({}) == "0"
        assert laurent_text({0: 1}) == "1"
        assert laurent_text({-1: 1, 1: 1}) == "q^-1 + q"
        assert laurent_text({0: 2, 2: -3}) == "2 - 3*q^2"

    def test_parse_presentation_arity(self):
        with pytest.raises(InputError, match="argument"):
            parse_presentation("circle:1,2", 2, ZZ, "equivariant")
        pres = parse_presentation("circle:1", 2, ZZ, "equivariant")
        assert len(pres.movies) == 2

"""Tests for the command-line interface."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from foamlab import dsl, statespace
from foamlab.cli import laurent_text, main, parse_presentation
from foamlab.errors import InputError
from foamlab.polyring import ZZ, qbinom_laurent
from foamlab.statespace import MOY_RELATIONS, WEB_FAMILIES

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

movie thick_cup on empty {
  cup(2) -> c1;
  decorate c1 with p_2;
}

movie full_sphere on empty {
  cup(3) -> c1;
  decorate c1 with p_2*p_1 + e_3;
  cap(3) on c1;
}

movie zipped on empty {
  cup(1) -> a;
  decorate a with p_1^2;
  cup(1) -> b;
  decorate b with p_1;
  zip(1,1) on (a, b);
  decorate e5 with e_2;
  unzip on e5;
  cap(1) on e6;
  cap(1) on e7;
}

movie dotted_sphere_torus on empty {
  cup(1) -> c1;
  decorate c1 with p_1;
  cap(1) on c1;
  cup(1) -> c2;
  saddle on (c2, c2);
  saddle on (e1, e2);
  cap(1) on e3;
}

movie dotted_theta on empty {
  cup(2) -> c;
  decorate c with e_2;
  digon_cup(1,1) on c;
  decorate e4 with p_1^2;
  decorate e5 with p_1;
  digon_cap on (e4, e5);
  cap(2) on e6;
}

movie dotted_spheres_torus on empty {
  cup(1) -> c1;
  decorate c1 with p_1^3;
  cap(1) on c1;
  cup(2) -> c2;
  decorate c2 with p_2^2 + e_2^2;
  cap(2) on c2;
  cup(1) -> c3;
  saddle on (c3, c3);
  decorate e1 with p_1;
  saddle on (e1, e2);
  cap(1) on e3;
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

    def test_breakdown_lists_colorings_of_the_whole_foam(self, capsys, foam_file):
        # two components, summed apart; the breakdown still has one line per
        # coloring of the whole foam, in enumeration order
        target = f"{foam_file}#dotted_sphere_torus"
        parts = [
            "({'f1': frozenset({1}), 'f2': frozenset({1})}, (-X1) / ((X1 - X2)))",
            "({'f1': frozenset({1}), 'f2': frozenset({2})}, (-X1) / ((X1 - X2)))",
            "({'f1': frozenset({2}), 'f2': frozenset({1})}, (X2) / ((X1 - X2)))",
            "({'f1': frozenset({2}), 'f2': frozenset({2})}, (X2) / ((X1 - X2)))",
        ]
        code, out, _ = run(capsys, "eval", "--N", "2", "--breakdown", target)
        assert code == 0
        assert out == "\n".join(
            ["-2"] + [f"  coloring {i}: {p}" for i, p in enumerate(parts)]
        ) + "\n"
        code, out, _ = run(capsys, "eval", "--N", "2", "--breakdown", "--json", target)
        assert code == 0
        assert out == json.dumps(
            {
                "N": 2,
                "base": "equivariant",
                "breakdown": parts,
                "command": "eval",
                "ring": "Z",
                "schema": "foamlab.v1",
                "value": "-2",
            },
            separators=(",", ":"),
        ) + "\n"

    @pytest.mark.parametrize(
        "movie, N, flags, digest",
        [
            ("dotted_theta", "3", (),
             "aa968e296824cf68b9cc04389f47629300fc9d1637999a475f2d3b09f46f2d8d"),
            ("dotted_theta", "3", ("--json",),
             "df03eb09f733f5a8a65a13d435168185e9b9eb31239f3ef01ad977b231344ecb"),
            ("dotted_spheres_torus", "4", (),
             "3ec3d76f2e4873a49099b65b1b87e05ba7a5b1aa07600ada0a87b6ca3452da7a"),
            ("dotted_spheres_torus", "4", ("--json",),
             "5113e646e6dc7573f666d4150f7e96be75f597dd212e2533c14d29547163e01f"),
        ],
    )
    def test_breakdown_stdout_is_pinned(self, capsys, foam_file, movie, N, flags, digest):
        # every colored value of a decorated foam, three components in the
        # second, pinned byte for byte
        code, out, _ = run(
            capsys, "eval", "--N", N, "--breakdown", *flags, f"{foam_file}#{movie}"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    def test_prime_field_fails_before_any_pairing(self, capsys, monkeypatch):
        def no_pairing(*args):
            raise AssertionError("pairing work started")

        monkeypatch.setattr(statespace, "_family_values", no_pairing)
        code, out, err = run(capsys, "rank", "--web", "circle:1", "--N", "2", "--ring", "F5")
        assert (code, out) == (1, "")
        assert err == "error: graded ranks are computed over Z or Q coefficients\n"


# (web, N, extra flags) -> sha256 of `gram --json` stdout, of `rank --json` stdout
PINNED_PRESENTATIONS = {
    ("circle:2", "4", ()): (
        "56457c1c6ce69eba8bef19ced660a0efceafff34234c979508f4289f67512325",
        "408b5fd99f4872e67142157c713d183b83529a25d3194b8e6ef9f41d8265e9cf",
    ),
    ("digon:1,1", "3", ()): (
        "b6cd07d939573712416159ac7af4a3f3cc33602c7ede6029de7952d81f1525a2",
        "fe96c123e99be0df5ba59b64077ef14beb93d84f3788dc4b8b8660b2562047fd",
    ),
    ("bad_digon:1,1", "3", ()): (
        "3a692562beb0c9671da60af25f0133af7094d9cf32f7e6860b85e13acf6ea705",
        "468ce9d18dc70ed3caba9f6d8af53daf3b6738ac3c4866939c368f386f3b49d1",
    ),
    ("necklace", "3", ()): (
        "246fbe0acefd03f8074cff454981dec4b37de0187a0e5f3d58ffa2a1ad64db1d",
        "ce00452062dedd5f51ae1aaee96093fe6d24cfa8bf9e58f8d4ed32655383f92d",
    ),
    ("chain_left:1,1,1", "3", ()): (
        "659f180138e44fa3250f0df667fa16bc3ab88550abde6d952181be4aa70d9cee",
        "58ad58ddadd7e0992767bcb97cf6083e9ca116915f9ec8b342335d7724af0cb0",
    ),
    ("circle:1", "3", ("--base", "phi0")): (
        "64673031f99eef25b7312c3051f79523ed43a7f5b26f80526aafeb433a9b791b",
        "b43c59332cf696b1d19f876ff2b8c4dee2430802d8bccea84269295d01fa3c5a",
    ),
    # unequal thicknesses, where the order of a split shows
    ("digon:1,2", "4", ()): (
        "79920c0f918b8f799b4d8c3f0ae3719885d58c56e108992258d8e036449930e2",
        "1bccfc98ce72a265891c646b3ac053b407d09537fd268362dc4e682ba1a4b7d4",
    ),
    ("digon:2,1", "4", ()): (
        "1f3bac4596e662d6c51aaa918f84b1a67af794b4eda34bae1999d0ebfb16d5a9",
        "43ac35f9546647f2a957d8d26b4ad5e980719e21f137a385f10ff8638e1d9778",
    ),
    ("bad_digon:1,2", "4", ()): (
        "31365e7c1255996ed375eff2cd701b193819dc1974f06c15645e4d2f3766c119",
        "a2e8f2754e37bed2c5579c469f3da72f3c96343ffeaf1972ed83582f011803b3",
    ),
    ("chain_left:1,2,1", "4", ()): (
        "649eb0a06d2f4d0ab7195c463d18d94b7666aece953a48d7943097a9de03982b",
        "db5469907bf9e288d45cb310b7eef22c5cacccf577fbd927e231988fc0302c79",
    ),
    ("chain_right:2,1,1", "4", ()): (
        "776b4e18cbb5308165d14ac7f221c26abaaecbe19243c48bfda3cc137434ec4e",
        "47d3f8aacd2710111aefa74f7b4d7e2a09fcfaafd3570a8b101483bc2013baa9",
    ),
    ("chain_right:1,1,1", "3", ()): (
        "e66931bd7774b5399c79e1771b819b1542221e2a932a7e280f609925a902b750",
        "1275f4d6309984ce492bfe6ac2eb16bd7d36ebc1a3ef43d23c3912479e06ed6c",
    ),
}


@pytest.mark.parametrize("web,N,flags", list(PINNED_PRESENTATIONS))
@pytest.mark.parametrize("command", ["gram", "rank"])
def test_gram_and_rank_stdout_is_pinned(capsys, command, web, N, flags):
    # Gram entries expanded to X1..XN and the graded rank, byte for byte
    code, out, _ = run(capsys, command, "--web", web, "--N", N, *flags, "--json")
    assert code == 0
    digest = PINNED_PRESENTATIONS[web, N, flags][command == "rank"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of ``gram --json`` stdout on two presentations whose orbit sums
# have many blocks, recorded when orbits were summed by divided differences
PINNED_LARGE_GRAMS = {
    ("circle:1", "12"): "5d53c6b8e57af8de861a83efbb308b1e09bcdc8a011c57935c7b57414acb7270",
    ("circle:2", "8"): "43472415f2e02ac7cacab9924639f14ef12072ac279f8772f041b76582e6a08b",
}


@pytest.mark.parametrize("web,N", list(PINNED_LARGE_GRAMS))
def test_large_gram_stdout_is_pinned(capsys, web, N):
    code, out, _ = run(capsys, "gram", "--web", web, "--N", N, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_LARGE_GRAMS[web, N]


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

    @pytest.mark.parametrize("relation", list(MOY_RELATIONS))
    @pytest.mark.parametrize("n,trials", [("0", "3"), ("-3", "3"), ("2", "-1")])
    def test_out_of_range_n_and_trials_are_input_errors(self, capsys, relation, n, trials):
        code, out, err = run(
            capsys, "moy-check", "--relation", relation, "--N", n, "--trials", trials
        )
        assert (code, out) == (2, "") and err.startswith("error: ")

    def test_bad_square_needs_two_pigments(self, capsys):
        code, out, err = run(capsys, "moy-check", "--relation", "bad_square", "--N", "1")
        assert (code, out, err) == (2, "", "error: the ladder web needs N >= 2\n")


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


# (operator, movie) -> sha256 of `act --N 3 --json` stdout, with the pack
# below over Q, and over F5 for the differential d
ACT_PACK = ("--s", "1/4", "--nu1", "lin:1/2", "--nu2", "lin:-1/3")
PINNED_ACT = {
    ("e", "dotted_sphere"): "9264ce1f609c04b6088e00c12fafa07090688a61db12fd7f379de40141a16607",
    ("h", "dotted_sphere"): "5af2ca4d335551311ae46dac517900976add3bff0afdb91897c238fcefd27177",
    ("f", "dotted_sphere"): "3f787041b0b5ea9e2d97f287df9b8a88b5efb5b3c250eb0c5e49b250111c5aa2",
    ("L:-1", "dotted_sphere"): "24dfa9f911ff6676fac2699641e4dee554a32d1911bccd470284597218646c20",
    ("L:0", "dotted_sphere"): "f04a33babdf12f5eca223bad22b687b474b3890c90ab71dc75c1905e11543e27",
    ("L:1", "dotted_sphere"): "770b1330376f1cfb4a7106c0b5c54e222b1d35927ea2e8d8a9304bfa76b30125",
    ("L:3", "dotted_sphere"): "43a9aa3cbeafe3c89096873f708e95b952711bc41b74753e7435e31cbcf87156",
    ("d", "dotted_sphere"): "4febd4e356b3376bf628a214a24d34483679300f7bade6c9e94c2a8f2cbf6052",
    ("e", "full_sphere"): "4791887d6ecdeedfec97f479f7bbb5c2bca68276f2fa72e469f8ce49f70fedbd",
    ("h", "full_sphere"): "114ed92ab9743209aea67a366cee3576591e14bc04e6c533cfe5bb6d1cfc67f9",
    ("f", "full_sphere"): "0b3fcdd6213fb9f1e922986772fc8cec45806678cd3efae9b0c46f9a95d43173",
    ("L:-1", "full_sphere"): "7712b49a59ce9153c9791f6bebf5bb4bf4eabb08c0335ed734e11259d881375f",
    ("L:0", "full_sphere"): "4ae71ab5f7d634847c667b064ec6a83a9d9584d232b95c391515ac32738bdbc7",
    ("L:1", "full_sphere"): "66af31c5614d528de5d657095772fab3bd0483a681903c9e02577808cbeee00d",
    ("L:3", "full_sphere"): "877f21c5dd10e183b8b1afcce94656a0d5fa3f01c858eedfc1ffe250f33ce984",
    ("d", "full_sphere"): "5a29ca95525f3cc26ce76c8e88510bc6397852e71ac5cb2ed180b1a8571f6b61",
    ("e", "dotted_spheres_torus"): "2ed2bb2d5adba32791eef68f6d535bd4ec9c3c6add35c66c98a53f2388e93568",
    ("h", "dotted_spheres_torus"): "48b0f9128e17afa55fb852e60f0cd09519d6e978a401eb545c783254cf817f78",
    ("f", "dotted_spheres_torus"): "a87d29ddcd41ac42e807c382baf17fce4fa3efbba9b2a71ea09461f28273ecef",
    ("L:-1", "dotted_spheres_torus"): "b72949cbe339200be925920b69e8806e56d24bd9e05516a3e7721198c604d778",
    ("L:0", "dotted_spheres_torus"): "b5c7a4b3735c94aec492839a2cbb977427e101e7a95f34d0517a082b6841b469",
    ("L:1", "dotted_spheres_torus"): "1998b63d6ad34fe3ac5309cc255207d7283c8f7d5e61312c2a5bd469286b6774",
    ("L:3", "dotted_spheres_torus"): "3b84ec251f5c68b70b79b97967e83f9d01a5604870b5676665b42979a2afe0ea",
    ("d", "dotted_spheres_torus"): "4cc767e90a2dc13704a0917bcb5f8ae88924695fd1c10c1357cd1c5b064ca56a",
    ("e", "dotted_theta"): "6bbcb7fae1bde17f44b59955ecb8fc0f08ace70087fe29e0d366cbcc0fa821c4",
    ("h", "dotted_theta"): "21b9dd0c210efab77e17df71f04a2fd0e534c022651757e86064717b87211c7c",
    ("f", "dotted_theta"): "954dc61b47d2f3a7c550ac8061f2232698d886e1bd4a4f7ad881741e33d22470",
    ("L:-1", "dotted_theta"): "92583d9d7677b1a50b39990a1353bfcff77a22955fa1dbc2a16d430316a7d48d",
    ("L:0", "dotted_theta"): "3cb79ffb8b7f819776075bfdc0c16817a48342868bbda9d419e042faf91a30bd",
    ("L:1", "dotted_theta"): "92aa9db3a396556c807581ea9878a63e36bf71e3782aecd39cb0da1129556df0",
    ("L:3", "dotted_theta"): "0d587a799c26a3578b25214037447bcb7f476efa3c6e2ec71f6e9d26dd8f8ca0",
    ("d", "dotted_theta"): "7c0446459a8e4fd95a49918bbac206f811bb64b84153e6f79f45c360f724ede5",
    ("e", "zipped"): "5eef870bc0773c190fbcd8967ef64b1c2640f7a5405edc0422aa60a6ae7e8683",
    ("h", "zipped"): "96011affccc57d317f3d0323cab3c7c3ffdbcc304fafc94dd7dbd226c23fdf2c",
    ("f", "zipped"): "9ea303d94e41c6a475fad7e4a66253b0f610e61ebdbdb8af38ad7a11779d39a2",
    ("L:-1", "zipped"): "4ed18fe5ec3c9bb5cbeb5dca899e1e7bd81f0f06f65f63b82deb7c7da9adbb9c",
    ("L:0", "zipped"): "fe1eb74f70f23f0a8d843284bb376ee6fdd6a3d1d426e65c20ead11ac7f24bfd",
    ("L:1", "zipped"): "58da37393d8384504d276f7bea2aace13d2e978dd6561087ea8abcd6b092233b",
    ("L:3", "zipped"): "d05a51e8628835095dbdf7b03982bd10b67f010686682f2801b0e55790e719ea",
    ("d", "zipped"): "4619191858797a547a3865e1d9c746cbf466e68d5926d5c8fdb7ef9bb47a2947",
}


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

    # h vanishes on the closed sphere (degree 0), so it is also pinned on the
    # open cup, where the cup's own weight shows.
    @pytest.mark.parametrize(
        "args,target,json_out,text_out",
        [
            (
                ("--op", "e", "--t3", "1/3"), "thick_sphere",
                '"op":"e","ring":"Q","schema":"foamlab.v1","terms":[["-2","f1:x1 + x2"]]}',
                "(-2)*[f1:x1 + x2]",
            ),
            (
                ("--op", "h", "--t3", "1/3"), "thick_sphere",
                '"op":"h","ring":"Q","schema":"foamlab.v1","terms":[]}',
                "0",
            ),
            (
                ("--op", "h", "--t3", "1/3"), "thick_cup",
                '"op":"h","ring":"Q","schema":"foamlab.v1","terms":[["-2","f1:x1^2 + x2^2"]]}',
                "(-2)*[f1:x1^2 + x2^2]",
            ),
            (
                ("--op", "f", "--t3", "1/3"), "thick_sphere",
                '"op":"f","ring":"Q","schema":"foamlab.v1","terms":'
                '[["-2","f1:x1^2*y1 + x2^2*y1"],["-1","f1:x1^2*x2 + x1*x2^2"],'
                '["1","f1:x1^3 + x2^3"]]}',
                "(-2)*[f1:x1^2*y1 + x2^2*y1] + (-1)*[f1:x1^2*x2 + x1*x2^2]"
                " + (1)*[f1:x1^3 + x2^3]",
            ),
            (
                ("--op", "d", "--ring", "F3"), "thick_sphere",
                '"op":"d","ring":"F3","schema":"foamlab.v1","terms":'
                '[["1","f1:x1^2*y1 + x2^2*y1"],["2","f1:x1^2*x2 + x1*x2^2"],'
                '["1","f1:x1^3 + x2^3"]]}',
                "(1)*[f1:x1^2*y1 + x2^2*y1] + (2)*[f1:x1^2*x2 + x1*x2^2]"
                " + (1)*[f1:x1^3 + x2^3]",
            ),
        ],
    )
    def test_sl2_and_differential_images_are_pinned(
        self, capsys, foam_file, args, target, json_out, text_out
    ):
        argv = ("act", "--N", "3", *args, f"{foam_file}#{target}")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert out == '{"N":3,"command":"act",' + json_out + "\n"
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == text_out + "\n"

    @pytest.mark.parametrize("op,movie", list(PINNED_ACT))
    def test_act_stdout_is_pinned(self, capsys, foam_file, op, movie):
        # a dotted sphere, a thickness-N sphere (empty outer block), spheres
        # and a dotted torus, a digon and a zip, byte for byte
        ring = "F5" if op == "d" else "Q"
        code, out, _ = run(
            capsys, "act", "--op", op, "--N", "3", "--ring", ring, *ACT_PACK,
            "--json", f"{foam_file}#{movie}",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_ACT[op, movie]

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

    def test_euler_suite_stdout_is_pinned(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "euler", "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "9520f4eda067c8295e72a0931111f3c3edc10daa6a8e62b7f9e75a290f58a140"
        )


class TestTypedBoundary:
    """Malformed or out-of-range numbers exit 2, and other library errors
    exit 1, with an ``error:`` line and no traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--N", "2", "--mod", "4", "#sphere"),
            ("eval", "--N", "2", "--mod", "1", "#sphere"),
            ("rank", "--web", "circle:1", "--N", "2", "--ring", "F4"),
            ("rank", "--web", "circle:1", "--N", "2", "--ring", "F1"),
            ("eval", "--N", "0", "#dotted_sphere"),
            ("eval", "--N", "-1", "#dotted_sphere"),
            ("rank", "--web", "digon:0,1", "--N", "3"),
            ("rank", "--web", "chain_left:0,1,1", "--N", "3"),
            ("rank", "--web", "chain_right:1,0,1", "--N", "3"),
            ("check", "--suite", "commutators", "--nmax", "-5"),
            ("act", "--op", "e", "--N", "2", "--s", "1/0", "#sphere"),
            ("act", "--op", "L:9", "--N", "2", "#dotted_sphere"),
            ("check", "--suite", "commutators", "--nmax", "5"),
            # pack scalars outside the ring
            ("act", "--op", "L:0", "--N", "2", "--ring", "Z", "--s", "1/2", "#dotted_sphere"),
            ("act", "--op", "L:0", "--N", "2", "--ring", "F5", "--s", "1/5", "#dotted_sphere"),
            ("act", "--op", "L:0", "--N", "2", "--ring", "Z", "--nu1", "lin:1/2",
             "#dotted_sphere"),
            ("act", "--op", "L:0", "--N", "2", "--ring", "Z", "--nu2", "tab:[0,1/2]",
             "#dotted_sphere"),
            ("act", "--op", "L:0", "--N", "2", "--ring", "Z", "--t3", "1/2", "#dotted_sphere"),
            ("induced", "--op", "d", "--web", "circle:1", "--N", "2", "--ring", "F3",
             "--t1", "1/3"),
        ],
    )
    def test_input_error(self, capsys, foam_file, argv):
        argv = [foam_file + a if a.startswith("#") else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_library_error_exits_one(self, capsys, foam_file):
        # a library error that is not an InputError exits 1: the Witt move
        # weights of L_1 need 1/2, and TwoNotInvertible says Z has none
        code, out, err = run(capsys, "act", f"{foam_file}#sphere", "--op", "L:1",
                             "--N", "2", "--ring", "Z")
        assert code == 1 and out == ""
        assert err == "error: 1/2 does not exist in Z\n"


class TestDslReferences:
    """Named polynomials through ``foamlab eval``: a named ``hat(p_k)``
    decorates like the inline one, and reference cycles and over-deep
    nesting exit 2 with an ``error:`` line and no traceback."""

    @staticmethod
    def eval_file(capsys, tmp_path, text, N="3"):
        p = tmp_path / "refs.foam"
        p.write_text(text)
        return run(capsys, "eval", "--N", N, f"{p}#m")

    def test_named_hat_decorates_like_the_inline_one(self, capsys, tmp_path):
        named = self.eval_file(capsys, tmp_path, """
            poly a = hat(p_1);
            movie m on empty { cup(1) -> c; decorate c with a^2 + 2*a*p_1; cap(1) on c; }
        """)
        inline = self.eval_file(capsys, tmp_path, """
            movie m on empty {
              cup(1) -> c; decorate c with hat(p_1)^2 + 2*hat(p_1)*p_1; cap(1) on c;
            }
        """)
        assert named == inline
        assert named[0] == 0 and named[1].strip() not in ("", "0")

    @pytest.mark.parametrize(
        "polys,cycle",
        [
            ("poly a = a;", "a -> a"),
            ("poly a = 1 + b; poly b = e_1 * a;", "a -> b -> a"),
            ("poly a = b; poly b = c^2; poly c = -b;", "b -> c -> b"),
        ],
    )
    def test_reference_cycle_is_an_input_error(self, capsys, tmp_path, polys, cycle):
        code, out, err = self.eval_file(capsys, tmp_path, f"""
            {polys}
            movie m on empty {{ cup(1) -> c; decorate c with a; cap(1) on c; }}
        """)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and cycle in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "poly",
        ["(" * 400 + "p_1" + ")" * 400, "- " * 2000 + "p_1"],
        ids=["parentheses", "negations"],
    )
    def test_over_deep_nesting_is_an_input_error(self, capsys, tmp_path, poly):
        code, out, err = self.eval_file(capsys, tmp_path, f"""
            poly a = {poly};
            movie m on empty {{ cup(1) -> c; cap(1) on c; }}
        """)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "nested" in err and "Traceback" not in err

    def test_atom_named_polynomial_is_an_input_error(self, capsys, tmp_path):
        """``e_1`` names an atom: declaring it as a polynomial is refused
        where it is declared, not read as the elementary ``e_1`` later."""
        code, out, err = self.eval_file(capsys, tmp_path, """
            poly e_1 = p_2^2; poly z = e_1;
            movie m on empty { cup(1) -> c; decorate c with z; cap(1) on c; }
        """, N="2")
        assert (code, out) == (2, "")
        assert err.startswith("error: line 2, column 18: 'e_1' is an atom")

    def test_over_deep_chain_of_names_is_an_input_error(self, capsys, tmp_path):
        chain = "".join(f"poly a{i} = a{i + 1};" for i in range(2000)) + "poly a2000 = p_1;"
        code, out, err = self.eval_file(capsys, tmp_path, chain + """
            movie m on empty { cup(1) -> c; decorate c with a0; cap(1) on c; }
        """)
        assert (code, out) == (2, "")
        assert "nested" in err and "Traceback" not in err

    def test_long_flat_sum_evaluates(self, capsys, tmp_path):
        """A sum is one chain, however many terms it has: nothing is nested."""
        code, out, err = self.eval_file(capsys, tmp_path, f"""
            poly a = {" + ".join(["p_1"] * 2000)};
            movie m on empty {{ cup(1) -> c; decorate c with a; cap(1) on c; }}
        """, N="2")
        assert (code, out.strip(), err) == (0, "-2000", "")

    def test_each_named_polynomial_is_read_once(self, capsys, tmp_path, monkeypatch):
        """``a{k} = a{k-1} + a{k-1}`` doubles the value per line, not the work:
        the hat check and the realization each make at most three calls per
        declaration (the sum and its two references), not 2^41."""
        def counted(walk):
            inner, calls = getattr(dsl, walk), []

            def counting(*args):
                calls.append(args[1])
                assert len(calls) <= 3 * 41, f"{walk} reads a named polynomial twice"
                return inner(*args)

            return counting

        for walk in ("_uses_hat", "_realize_poly"):
            monkeypatch.setattr(dsl, walk, counted(walk))
        chain = "poly a0 = p_1;" + "".join(f"poly a{k} = a{k - 1} + a{k - 1};" for k in range(1, 41))
        code, out, err = self.eval_file(capsys, tmp_path, chain + """
            movie m on empty { cup(1) -> c; decorate c with a40; cap(1) on c; }
        """, N="2")
        assert (code, out.strip(), err) == (0, "-1099511627776", "")

    def test_nesting_inside_the_bound_evaluates(self, capsys, tmp_path):
        deep = self.eval_file(capsys, tmp_path, f"""
            poly a = {"(" * 40 + "p_1" + ")" * 40};
            poly b = {"- " * 40 + "a"};
            movie m on empty {{ cup(1) -> c; decorate c with b^2; cap(1) on c; }}
        """, N="2")
        flat = self.eval_file(capsys, tmp_path, """
            movie m on empty { cup(1) -> c; decorate c with p_1^2; cap(1) on c; }
        """, N="2")
        assert deep == flat and deep[0] == 0


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

    @pytest.mark.parametrize("spec", ["circle:1,", "circle:1,,", "circle:,1", "digon:1,,2"])
    def test_empty_web_argument_is_input_error(self, capsys, spec):
        code, out, err = run(capsys, "rank", "--web", spec, "--N", "3")
        assert (code, out) == (2, "") and f"bad web arguments in {spec!r}" in err

    @pytest.mark.parametrize("spec", ["necklace", "necklace:"])
    def test_parse_presentation_without_arguments(self, spec):
        assert len(parse_presentation(spec, 2, ZZ, "equivariant").movies) == 4


# ---------------------------------------------------------------------------
# fuzzing the entry point
# ---------------------------------------------------------------------------

# N <= 3 and thicknesses <= 2 keep every generated case fast.  The pools
# mix valid values (repeated, so that most cases get past the parser) with
# malformed ones.
_N = st.sampled_from(["1", "2", "3", "2", "3", "0", "-1"])
_THICK = st.sampled_from(["1", "2", "1", "2", "0", "-1"])
_RING = st.sampled_from(["Z", "Q", "F3", "F5"] * 3 + ["F2", "F0", "F1", "F4", "R"])
_BASE = st.sampled_from(["equivariant", "phi0"])
_OP = st.sampled_from(["e", "h", "f", "d", "L:-1", "L:0", "L:2", "L:-2", "L:x", "q"])
_SCALAR = st.sampled_from(["0", "1", "-1", "1/2", "-2/3"] * 3 + ["1/0", "x"])
_SEQ = st.sampled_from(["lin:0", "lin:1/2", "tab:[0,1,2]"] * 3 + ["lin:1/0", "tab:[1", "bogus"])
# every family of the table, and one the parser does not know
_ARITY = {name: arity for name, (arity, _) in WEB_FAMILIES.items()} | {"pentagon": 1}


@st.composite
def _web(draw):
    family = draw(st.sampled_from(sorted(_ARITY)))
    arity = draw(st.sampled_from([_ARITY[family]] * 4 + [0, 1, 2, 3]))
    return f"{family}:{','.join(draw(_THICK) for _ in range(arity))}"


@st.composite
def _pack(draw):
    out = []
    for flag, values in (
        ("--s", _SCALAR), ("--t1", _SCALAR), ("--t2", _SCALAR), ("--t3", _SCALAR),
        ("--nu1", _SEQ), ("--nu2", _SEQ), ("--nu3", _SEQ),
    ):
        if draw(st.booleans()):
            out += [flag, draw(values)]
    if draw(st.booleans()):
        out.append(draw(st.sampled_from(["--spherical", "--no-spherical"])))
    return out


@st.composite
def _argv(draw, movie_file):
    cmd = draw(st.sampled_from(
        ["eval", "degree", "act", "gram", "rank", "moy-check", "induced", "check"]
    ))
    target = f"{movie_file}#{draw(st.sampled_from(['sphere', 'dotted_sphere', 'thick_sphere', 'nope']))}"
    if cmd == "eval":
        argv = ["eval", "--N", draw(_N), target]
        if draw(st.booleans()):
            argv += ["--mod", draw(st.sampled_from(["-1", "0", "1", "2", "3", "4"]))]
        argv += [f for f in ("--phi0", "--breakdown") if draw(st.booleans())]
    elif cmd == "degree":
        argv = ["degree", "--N", draw(_N), target]
    elif cmd == "act":
        argv = ["act", "--op", draw(_OP), "--N", draw(_N), "--ring", draw(_RING), target]
        argv += draw(_pack())
    elif cmd in ("gram", "rank"):
        argv = [cmd, "--web", draw(_web()), "--N", draw(_N), "--ring", draw(_RING),
                "--base", draw(_BASE)]
        if cmd == "rank":
            argv += ["--trials", draw(st.sampled_from(["-1", "0", "1", "2"]))]
    elif cmd == "moy-check":
        relation = draw(st.sampled_from(list(MOY_RELATIONS)))
        argv = ["moy-check", "--relation", relation, "--N", draw(_N),
                "--a", draw(_THICK), "--b", draw(_THICK), "--c", draw(_THICK),
                "--ring", draw(_RING), "--base", draw(_BASE),
                "--trials", draw(st.sampled_from(["-1", "0", "1"]))]
    elif cmd == "induced":
        argv = ["induced", "--op", draw(_OP), "--web", draw(_web()), "--N", draw(_N),
                "--ring", draw(_RING), "--base", draw(_BASE)]
        argv += draw(_pack())
    else:
        argv = ["check", "--suite", draw(st.sampled_from(["euler", "commutators", "compat", "pdg"])),
                "--nmax", draw(st.sampled_from(["-5", "-1", "0", "1"])),
                "--count", draw(st.sampled_from(["-1", "0", "1", "2"]))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("fuzz") / "fixtures.foam"
    p.write_text(FIXTURES)
    return str(p)


class TestFuzz:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_exit_codes_without_tracebacks(self, fuzz_file, data):
        argv = data.draw(_argv(fuzz_file))
        out, err = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(argv)
            except SystemExit as exc:
                code = exc.code or 0
        assert code in (0, 1, 2), (argv, code, err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue(), argv
        if code == 2:
            assert err.getvalue(), argv

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from leftorder.cli import main
from leftorder.serialize import (
    cone_from_dict, cone_to_dict, ctx_from_dict, ses_from_dict, word_from_pairs,
)
from leftorder.cones import (
    ConjugateCone, KleinCone, cyclic_embedding, dynamical_cone, lex_cone,
    quad_slope_cone, restrict_cone, ses_kernel_embedding, slope_cone, z_cone,
)
from leftorder.actions import conj_cone
from leftorder.surd import rational, sqrt_of
from leftorder.words import FreeCtx, KleinCtx


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


# -- serialization round-trips ------------------------------------------------------

def test_cone_round_trips():
    from leftorder.cones import DynamicalCone
    from leftorder.surd import mat2
    from leftorder.words import FreeCtx
    sol = ses_from_dict("sol")
    cones = [
        slope_cone((2, -3), "-+"),
        quad_slope_cone((rational(1), sqrt_of(2)), "+"),
        z_cone(),
        KleinCone(KleinCtx(), 1, -1),
        lex_cone(sol, slope_cone((1, 0), "++", sol.kernel),
                 z_cone(ctx=sol.quotient)),
        dynamical_cone(),
        DynamicalCone(FreeCtx(2), (mat2([[1, 3], [0, 1]]), mat2([[1, 0], [3, 1]])),
                      (sqrt_of(2), sqrt_of(5))),
    ]
    zxf2, zxk = ses_from_dict("zxf2"), ses_from_dict("zxklein")
    cones += [
        lex_cone(zxf2, z_cone(False, zxf2.kernel), dynamical_cone(zxf2.quotient)),
        lex_cone(zxk, z_cone(ctx=zxk.kernel), KleinCone(zxk.quotient, -1, 1)),
    ]
    lexc = cones[4]
    dyn = dynamical_cone()
    a, b = dyn.ctx.gens()
    cones += [
        conj_cone(dyn, a),
        ConjugateCone(lexc, sol.total.word([("t", 1), ("a", -2)])),
        restrict_cone(lexc, ses_kernel_embedding(sol)),
        restrict_cone(dyn, cyclic_embedding(dyn.ctx, a * b ** -1)),
    ]
    for c in cones:
        assert cone_from_dict(cone_to_dict(c)) == c


# -- commands ------------------------------------------------------------------------

def test_sign_command(capsys):
    code, doc = run(capsys, "sign", "--cone", '{"kind":"klein","ex":1,"ey":1}',
                    "--word", "y^-3 x")
    assert code == 0
    assert doc["result"]["sign"] == "+"


def test_axioms_command_pass(capsys):
    code, doc = run(capsys, "axioms", "--cone", '{"kind":"klein","ex":1,"ey":1}',
                    "--r", "3")
    assert code == 0
    assert doc["result"]["ok"] is True


def _sol_lex_quad(normal):
    return json.dumps({"kind": "lex", "ses": "sol",
                       "kernel": {"kind": "quad_slope", "a": normal, "sign": "+"},
                       "quotient": {"kind": "zsign", "sign": 1}})


def test_orbit_command(capsys):
    code, doc = run(capsys, "orbit", "--cone", '{"kind":"klein","ex":1,"ey":1}',
                    "--conjugators", "x,y")
    assert code == 0
    assert doc["result"]["size"] == 2


@pytest.mark.parametrize("cone, conjugators, size", [
    ('{"kind":"conjugate","base":{"kind":"klein","ex":1,"ey":1},"by":[["x",1]]}',
     "x,y", 2),
    # the kernel normal (1, (sqrt 5 - 1)/2) is an eigenvector of A^T: t fixes the cone
    (_sol_lex_quad([[1, 0, 1, 0], [-1, 1, 2, 5]]), "t,a", 1),
])
def test_orbit_command_decides_read_descriptors(capsys, cone, conjugators, size):
    code, doc = run(capsys, "orbit", "--cone", cone, "--conjugators", conjugators)
    assert code == 0
    assert doc["result"]["size"] == size


def test_conradian_command(capsys):
    code, doc = run(capsys, "conradian", "--cone",
                    '{"kind":"slope","a":[1,0],"variant":"++"}', "--r", "4")
    assert code == 0
    assert doc["result"]["passed"] is True


def test_convexity_command_witness_and_verify(capsys, tmp_path):
    code, doc = run(capsys, "convexity", "--cone",
                    '{"kind":"slope","a":[1,-1],"variant":"++"}',
                    "--subgroup", "e1", "--r", "6")
    assert code == 1
    assert doc["witnesses"]
    report = tmp_path / "report.json"
    report.write_text(json.dumps(doc))
    code2, doc2 = run(capsys, "verify-witness", "--report", str(report))
    assert code2 == 0
    assert doc2["result"]["reproduced"] is True


def test_slope_command(capsys):
    code, doc = run(capsys, "slope", "--cone",
                    '{"kind":"slope","a":[2,3],"variant":"+-"}')
    assert code == 0
    assert doc["result"]["slope"]["rational"] == [3, -2]


def test_slope_of_conjugate_descriptor_is_exact(capsys):
    code, doc = run(capsys, "slope", "--cone", '{"kind":"conjugate","base":'
                    '{"kind":"slope","a":[2,3],"variant":"+-"},"by":[["e1",1]]}')
    assert code == 0 and doc["result"]["exact"] is True
    assert doc["result"]["slope"]["rational"] == [3, -2]
    assert doc["result"]["variant"] == "+-"


def test_quad_slope_echo_is_canonical(capsys):
    code, doc = run(capsys, "slope", "--cone",
                    '{"kind":"quad_slope","a":[[-2,0,1,0],[0,-2,1,2]],"sign":"-"}')
    assert code == 0
    assert doc["config"]["cone"]["a"] == [[1, 0, 1, 0], [0, 1, 1, 2]]
    assert doc["config"]["cone"]["sign"] == "+"


def test_lex_command(capsys):
    code, doc = run(capsys, "lex", "--ses", "sol",
                    "--kernel", '{"kind":"slope","a":[1,0],"variant":"++"}',
                    "--quotient", '{"kind":"zsign","sign":1}',
                    "--word", "t")
    assert code == 0
    assert doc["result"]["sign"] == "+"


def test_kernel_decompose_command(capsys):
    code, doc = run(capsys, "kernel-decompose", "--word", "a b a^-1 b^-1")
    assert code == 0
    assert doc["result"]["basis"] == [{"g": [["a", 1]], "h": [["b", 1]], "e": 1}]


def test_conj_basis_command(capsys):
    code, doc = run(capsys, "conj-basis", "--g", "a", "--h", "b", "--by", "b")
    assert code == 0
    assert doc["result"]["agrees_with_decomposition"] is True
    assert doc["result"]["basis"] == [
        {"g": [["a", 1]], "h": [["b", 1]], "e": -1},
        {"g": [["a", 1]], "h": [["b", 2]], "e": 1}]


def test_kernel_decompose_refuses_a_non_kernel_word(capsys):
    assert main(["kernel-decompose", "--word", "a"]) == 2
    assert capsys.readouterr() == ("", "error: a projects to (a, 1)\n")


KLEIN_F2 = ('{"family":"free_product","factors":[{"family":"klein"},'
            '{"family":"free","rank":2,"gens":["a","b"]}]}')


# the conj-basis conjugator normalizes to y^-1 x a^2: a two-syllable G part
@pytest.mark.parametrize("argv,sha256", [
    (("verify-identities", "--count", "300", "--seed", "7", "--max-exp", "1"),
     "49655f858aff2e7e14f4f36d298caefe4e7b491c9c5475f6a839b64f94ffd5a3"),
    (("verify-identities", "--count", "300", "--seed", "7", "--max-exp", "50"),
     "f9c08858e3a645af6bd79e99c8934df2c7c10b9cf7e7b263c0bf01135a18fdab"),
    (("conj-basis", "--group", KLEIN_F2, "--g", "y^-1 x", "--h", "a",
      "--by", "x y a^2"),
     "c4b458aa86693cb75fa53fefbc1d3e72d81f1b853f3bcbcdffb004d7ef084f9c"),
], ids=["verify-identities-max-exp-1", "verify-identities-max-exp-50",
        "conj-basis-klein-f2"])
def test_kernel_layer_bytes_pinned(capsys, argv, sha256):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_closure_criterion_command(capsys):
    letters = json.dumps([{"g": "a^3", "h": "b", "e": 1}])
    labels = json.dumps([{"g": "a", "h": "b"}, {"g": "a^2", "h": "b^2"}])
    code, doc = run(capsys, "closure-criterion", "--letters", letters,
                    "--labels", labels)
    assert code == 1
    assert doc["result"]["consistent"] is False


def test_closure_criterion_huge_exponent_is_fast(capsys):
    # sorting the labels keys each one by its syllables, not by its letters
    letters = json.dumps([{"g": "a^1000000000", "h": "b", "e": 1}])
    labels = json.dumps([{"g": "a", "h": "b"}])
    start = time.perf_counter()
    code, doc = run(capsys, "closure-criterion", "--letters", letters,
                    "--labels", labels)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert doc["result"]["consistent"] is False


def test_amalgam_nf_command(capsys):
    code, doc = run(capsys, "amalgam-nf", "--word", "a^2 b^-1")
    assert code == 0
    assert doc["result"]["factor_length"] == 1
    assert doc["result"]["canonical_word"] == [["b", 1]]


def test_amalgam_nf_reads_the_word_on_the_instance_letters(capsys):
    instance = '{"family":"amalgam","weights":[2,3],"gens":["x","y"]}'
    code, doc = run(capsys, "amalgam-nf", "--instance", instance, "--word", "x^3 y^-1")
    assert code == 0
    # x^3 y^-1 = z x z^-1 y^2 with z = x^2 = y^3 central
    assert doc["config"]["word"] == [["x", 3], ["y", -1]]
    assert doc["result"]["canonical_word"] == [["x", 1], ["y", 2]]
    assert main(["amalgam-nf", "--instance", instance, "--word", "a"]) == 2


def test_trefoil_census_and_malnormality(capsys):
    code, doc = run(capsys, "census", "--group", "trefoil", "--r", "2", "--extend", "4")
    assert code == 0
    assert (doc["result"]["count"], doc["result"]["survivors"]["count"]) == (6, 6)
    code, doc = run(capsys, "malnormal", "--instance", "trefoil", "--r", "4")
    assert code == 1 and doc["witnesses"] == [[[["a", 2]], [["b", 1]]]]


def test_malnormal_commands(capsys):
    code, doc = run(capsys, "malnormal", "--instance", "free", "--r", "4")
    assert code == 0
    code, doc = run(capsys, "malnormal", "--instance", "square", "--r", "4")
    assert code == 1
    assert doc["witnesses"] == [[[["a", 2]], [["b", 1]]]]


@pytest.mark.parametrize("argv,code,sha256", [
    (("--instance", "free", "--r", "5"), 0,
     "475df63c877d0d28147ff7fce326689b5110367e77d08e6726f2426af0243bcb"),
    (("--instance", "square", "--r", "6"), 1,
     "b6fd7b02a000fd7d53a94791d84e8d9374baf0c7def2be1390c78227dc897a35"),
    (("--instance", "square", "--factor", "1", "--r", "5"), 1,
     "fba00ee34af2a912073c89264cd54b8c1f6cac903e134be927ce16aea8bcbe20"),
], ids=["free-r5", "square-r6", "square-factor1-r5"])
def test_malnormal_bytes_pinned(capsys, argv, code, sha256):
    assert main(["malnormal", *argv]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


SOL_LEX_ARGS = ("lex", "--ses", "sol",
                "--kernel", '{"kind":"slope","a":[1,0],"variant":"++"}',
                "--quotient", '{"kind":"zsign","sign":1}')


SOL_LEX_CONE = ('{"kind":"lex","ses":"sol",'
                '"kernel":{"kind":"slope","a":[1,0],"variant":"++"},'
                '"quotient":{"kind":"zsign","sign":1}}')


# whole stdout of the largest emits; the zz-free row runs the walk on a free
# product, and every other row equals the perfbench pin of its job
@pytest.mark.parametrize("argv,sha256", [
    (("census", "--group", "z2", "--r", "8"),
     "ae1cc742656adcc4ac6bd13c6551716d6702887e5f5c06a8bb6c5339c2305939"),
    (("census", "--group", "z2", "--r", "3", "--ball", "box"),
     "0b65074433f898754c063bca17b4e0844b63ef0e64c8e277b5aeae8f496684db"),
    (("census", "--group", "klein", "--r", "4", "--extend", "8"),
     "285fa03c7d62ea57e51c485198b8d50935fb4d7abff41d5c538ff831a84e149f"),
    (("census", "--group", "zz-free", "--r", "2", "--extend", "5"),
     "144fef7a26fe6b1f64c54ceab3a7c75eb73f23aa3c712075a247876c87a8ec32"),
    (("orbit", "--cone", SOL_LEX_CONE, "--conjugators", "t,a",
      "--max-size", "64"),
     "d98b943de06f151ecb17b5c39cb2bb37e4d429053b84238327fb3c7bd8a78899"),
], ids=["census-z2-r8", "census-z2-box-r3", "census-klein-r4-extend-8",
        "census-zz-free-r2-extend-5", "orbit-sol-lex"])
def test_emit_bytes_pinned(capsys, argv, sha256):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_lex_semidirect_power_under_cap_bytes_pinned(capsys):
    # t^N with N = 10^6 needs A^N, whose entries have about 1.4 million bits
    code = main([*SOL_LEX_ARGS, "--word", "t^1000000 a t^-1000000"])
    out = capsys.readouterr().out
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == (
        "6395961d3045f47e342f29a55537314108f501bb1ce4cdc4d38c663afa40180d")


@pytest.mark.parametrize("word", [
    "t^1000000000000 a t^-1000000000000",
    "t^-1000000000000 b",
])
def test_lex_semidirect_power_over_cap_exits_2(capsys, word):
    t0 = time.monotonic()
    code = main([*SOL_LEX_ARGS, "--word", word])
    elapsed = time.monotonic() - t0
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and elapsed < 1
    assert err.startswith("error: power") and "Traceback" not in err


HYPERBOLIC = ('{"kind":"dynamical","images":[[[2,1],[1,1]],[[1,0],[2,1]]],'
              '"basepoints":[[0,1,1,2],[0,1,1,3]]}')


@pytest.mark.parametrize("word", ["a^1000000000000", "b a^-65537"])
def test_dynamical_lifted_power_over_cap_exits_2(capsys, word):
    t0 = time.monotonic()
    code = main(["sign", "--cone", HYPERBOLIC, "--word", word])
    elapsed = time.monotonic() - t0
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and elapsed < 1
    assert err.startswith("error: ") and "bits" in err and "Traceback" not in err


def _conjugated(levels):
    """The hyperbolic cone wrapped in ``levels`` conjugates by a^65536 b."""
    cone = json.loads(HYPERBOLIC)
    for _ in range(levels):
        cone = {"kind": "conjugate", "base": cone, "by": [["a", 65536], ["b", 1]]}
    return json.dumps(cone)


def test_conjugate_under_the_lift_cap_bytes_pinned(capsys):
    code = main(["sign", "--cone", _conjugated(1), "--word", "b"])
    out = capsys.readouterr().out
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == (
        "e0b4fbfd1ac88ef09bb5d59c47d6b9b6dbd51da6bc4e549c8f27df77817181bc")


@pytest.mark.parametrize("levels", [2, 6])
def test_nested_conjugates_share_one_lift_cap(capsys, levels):
    # the conjugators multiply out first, and their product's lift passes the cap
    t0 = time.monotonic()
    code = main(["sign", "--cone", _conjugated(levels), "--word", "b"])
    elapsed = time.monotonic() - t0
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and elapsed < 2
    assert err.startswith("error: ") and "bits" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("sign", "--word", "a"), ("sign", "--word", "b^-1"), ("axioms", "--r", "2"),
])
def test_dynamical_rational_basepoint_exits_2(capsys, argv):
    # [1/2, sqrt 2]: b^-1 = [[1,0],[-2,1]] has its pole at 1/2
    cone = ('{"kind":"dynamical","images":[[[1,2],[0,1]],[[1,0],[2,1]]],'
            '"basepoints":[[1,0,2,0],[0,1,1,2]]}')
    code = main([*argv, "--cone", cone])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: dynamical basepoints must be irrational surds\n"


@pytest.mark.parametrize("argv", [
    ("sign", "--word", "a"), ("axioms", "--r", "2"),
])
def test_dynamical_without_basepoints_exits_2(capsys, argv):
    # read without error, such a cone would fail every later sign
    cone = ('{"kind":"dynamical","images":[[[1,2],[0,1]],[[1,0],[2,1]]],'
            '"basepoints":[]}')
    code = main([*argv, "--cone", cone])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: a dynamical cone needs at least one basepoint\n"


def test_census_command(capsys):
    code, doc = run(capsys, "census", "--group", "klein", "--r", "2")
    assert code == 0
    assert doc["result"]["count"] == 4


def test_census_box_ball(capsys):
    from leftorder.census import enumerate_ball_cones
    from leftorder.words import ZPowCtx
    z2 = ZPowCtx(2)
    expected = len(enumerate_ball_cones(z2, 1, gens=tuple(z2.box_generators())))
    code, doc = run(capsys, "census", "--group", "z2", "--r", "1",
                    "--ball", "box")
    assert code == 0
    assert doc["result"]["count"] == expected


def test_orbit_ball_strategy(capsys):
    code, doc = run(capsys, "orbit", "--cone", '{"kind":"klein","ex":1,"ey":1}',
                    "--conjugators", "x,y", "--strategy", "ball",
                    "--radius", "4")
    assert code == 0
    assert doc["result"]["size"] == 2


def test_slope_of_restriction_via_cli(capsys):
    cone = json.dumps({
        "kind": "restriction",
        "embedding": {"type": "ses_kernel"},
        "base": {"kind": "lex",
                 "ses": "sol",
                 "kernel": {"kind": "slope", "a": [1, 0], "variant": "++"},
                 "quotient": {"kind": "zsign", "sign": 1}}})
    code, doc = run(capsys, "slope", "--cone", cone)
    assert code == 0
    assert doc["result"]["exact"] is True
    assert doc["result"]["slope"]["rational"] == [0, 1]


def test_verify_identities_command(capsys):
    code, doc = run(capsys, "verify-identities", "--count", "50")
    assert code == 0
    assert doc["result"]["passed"] is True


@pytest.mark.parametrize("max_exp", [1, 4, 7])
def test_verify_identities_draws_follow_the_choice_stream(capsys, monkeypatch, max_exp):
    # the labels and conjugators drawn are those of rng.choice over the
    # nonzero exponents, which the command no longer lists
    import random
    from leftorder import cli
    seen = []
    original = cli.conj_basis

    def recording(ctx, label, by):
        seen.append((label[0].pairs(), label[1].pairs(), by.pairs()))
        return original(ctx, label, by)

    monkeypatch.setattr(cli, "conj_basis", recording)
    code, _ = run(capsys, "verify-identities", "--count", "40", "--seed", "3",
                  "--max-exp", str(max_exp))
    assert code == 0
    rng, m, expected = random.Random(3), max_exp, []
    for _ in range(40):
        i = rng.choice([k for k in range(-m, m + 1) if k])
        j = rng.choice([k for k in range(-m, m + 1) if k])
        a_exp, b_exp = rng.randint(-m, m), rng.randint(-m, m)
        for by in ([["a", a_exp]], [["b", b_exp]], [["a", a_exp], ["b", b_exp]]):
            expected.append(([["a", i]], [["b", j]], [p for p in by if p[1]]))
    assert seen == expected


def test_equivariance_command(capsys):
    code, doc = run(capsys, "equivariance", "--ses", "sol",
                    "--theta-const", '{"kind":"zsign","sign":1}',
                    "--kernel", '{"kind":"slope","a":[1,0],"variant":"++"}',
                    "--conjugators", "t,a", "--samples", "10")
    assert code == 0
    assert doc["result"]["ok"] is True


def test_equivariance_samples_keep_their_stream(capsys):
    # the identity conjugator keeps the cone and a moves it, so the first
    # sample that draws a is the witness: its index pins the random stream
    for seed, sample in ((0, 0), (1, 4), (2, 10)):
        code, doc = run(capsys, "equivariance", "--ses", "zxf2",
                        "--theta-const", '{"kind":"dynamical"}',
                        "--kernel", '{"kind":"zsign","sign":1}',
                        "--conjugators", "1,1,1,a", "--samples", "20", "--seed", str(seed))
        assert code == 1 and doc["result"]["witness"]["sample"] == sample


@pytest.mark.parametrize("samples,code", [("5", 2), ("0", 0)])
def test_equivariance_empty_conjugators(capsys, samples, code):
    # with samples to draw, an empty list is named; with none, it is not needed
    assert main(["equivariance", "--ses", "sol",
                 "--theta-const", '{"kind":"zsign","sign":1}',
                 "--kernel", '{"kind":"slope","a":[1,0],"variant":"++"}',
                 "--conjugators", "", "--samples", samples]) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and "Traceback" not in err
        assert err == "error: --conjugators is empty: no conjugator to sample\n"
    else:
        assert json.loads(out)["result"]["ok"] is True


def test_unknown_descriptor_exits_2(capsys):
    code, _ = run(capsys, "sign", "--cone", '{"kind":"nope"}', "--word", "x")
    assert code == 2


def test_klein_signs_outside_pm1_exit_2(capsys):
    for ex, ey in ((1, 0), (2, 1), (-1, 3)):
        cone = json.dumps({"kind": "klein", "ex": ex, "ey": ey})
        code, doc = run(capsys, "axioms", "--cone", cone)
        assert code == 2 and doc is None


def test_byte_reproducibility(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        main(["census", "--group", "klein", "--r", "3", "--extend", "5",
              "--out", str(f)])
    assert f1.read_bytes() == f2.read_bytes()


def _verify(capsys, tmp_path, doc):
    report = tmp_path / "report.json"
    report.write_text(json.dumps(doc))
    return run(capsys, "verify-witness", "--report", str(report))


def test_verify_witness_reproduces_and_rejects(capsys, tmp_path):
    cases = [
        (("conradian", "--cone", '{"kind":"dynamical"}', "--r", "3"),
         [[["a", 1]], [["a", 1]]]),
        (("malnormal", "--instance", "square", "--r", "3"),
         [[["a", 2]], [["a", 1]]]),
        (("malnormal", "--instance", "trefoil", "--r", "4"),
         [[["a", 2]], [["a", 1]]]),
    ]
    for argv, non_witness in cases:
        code, doc = run(capsys, *argv)
        assert code == 1 and doc["witnesses"]
        code, out = _verify(capsys, tmp_path, doc)
        assert code == 0 and out["result"]["reproduced"] is True
        doc["witnesses"] = [non_witness]
        code, out = _verify(capsys, tmp_path, doc)
        assert code == 1 and out["result"]["reproduced"] is False
        doc["witnesses"] = []
        code, out = _verify(capsys, tmp_path, doc)
        assert code == 1 and out["result"]["reproduced"] is False


@pytest.mark.parametrize("r,sha256", [
    ("4", "bea7ce6ad161004d02fefc38d0d2284f5960bf619dcfc00bd8dd96d2a4a5a365"),
    ("5", "8b6722fe405fa3a0083c87e01969c7aabff4b3626ed6475235329433fda32b06"),
    ("6", "c58c93524488c1946e72c46a8ec329e8c43e01ba7ab1a00fb584919e8186139f"),
])
def test_conradian_dynamical_all_bytes_pinned(capsys, r, sha256):
    code = main(["conradian", "--cone", '{"kind":"dynamical"}', "--r", r, "--all"])
    out = capsys.readouterr().out
    assert code == 1 and hashlib.sha256(out.encode()).hexdigest() == sha256


def test_verify_witness_accepts_conradian_all_report(capsys, tmp_path):
    code, doc = run(capsys, "conradian", "--cone", '{"kind":"dynamical"}',
                    "--r", "4", "--all")
    assert code == 1 and len(doc["witnesses"]) == 118
    code, out = _verify(capsys, tmp_path, doc)
    assert code == 0 and out["result"]["reproduced"] is True


@pytest.mark.parametrize("strategy", ["exact", "ball"])
def test_orbit_of_dynamical_cone_is_undecided(capsys, strategy):
    # conjugates are dynamical cones on moved basepoints, which no strategy
    # can tell equal or apart in general: exit 2 and nothing on stdout
    code = main(["orbit", "--cone", '{"kind":"dynamical"}', "--conjugators", "a,b",
                 "--strategy", strategy])
    assert code == 2 and capsys.readouterr().out == ""


def test_verify_witness_axioms_report(capsys, tmp_path):
    code, doc = run(capsys, "axioms", "--cone", '{"kind":"klein","ex":1,"ey":1}',
                    "--r", "3")
    assert code == 0 and doc["result"]["ok"] is True
    code, out = _verify(capsys, tmp_path, doc)
    assert code == 0 and out["result"]["reproduced"] is True
    doc["result"]["ok"] = False
    code, out = _verify(capsys, tmp_path, doc)
    assert code == 1 and out["result"]["reproduced"] is False


def test_verify_witness_wrong_arity_exits_2(capsys, tmp_path):
    code, doc = run(capsys, "convexity", "--cone",
                    '{"kind":"slope","a":[1,-1],"variant":"++"}',
                    "--subgroup", "e1", "--r", "6")
    assert code == 1
    short = doc["witnesses"][0][:2]
    # a malformed witness is rejected even after one that fails to certify
    for witnesses in ([short], [[[], [], []], short]):
        doc["witnesses"] = witnesses
        code, out = _verify(capsys, tmp_path, doc)
        assert code == 2 and out is None


def test_sign_cone_not_an_object_exits_2(capsys):
    code, out = run(capsys, "sign", "--cone", "[1]", "--word", "e1")
    assert code == 2 and out is None
    code, out = run(capsys, "sign", "--group", "[1]",
                    "--cone", '{"kind":"zsign"}', "--word", "e1")
    assert code == 2 and out is None


def test_verify_witness_non_list_witness_exits_2(capsys, tmp_path):
    code, doc = run(capsys, "conradian", "--cone", '{"kind":"dynamical"}',
                    "--r", "3")
    assert code == 1
    doc["witnesses"] = [5]
    code, out = _verify(capsys, tmp_path, doc)
    assert code == 2 and out is None


def test_verify_witness_mistyped_exponent_exits_2(capsys, tmp_path):
    code, doc = run(capsys, "malnormal", "--instance", "square", "--r", "3")
    assert code == 1
    doc["witnesses"] = [[[["a", "x"]], [["b", 1]]]]
    code, out = _verify(capsys, tmp_path, doc)
    assert code == 2 and out is None


@pytest.mark.parametrize("factor", ["x", 5, None, True, False, -1, 1.0])
def test_verify_witness_malnormal_bad_factor_exits_2(capsys, tmp_path, factor):
    code, doc = run(capsys, "malnormal", "--instance", "square", "--r", "3")
    assert code == 1
    doc["config"]["factor"] = factor
    report = tmp_path / "report.json"
    report.write_text(json.dumps(doc))
    assert main(["verify-witness", "--report", str(report)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: config factor")


def test_traced_benchmark_job_runs():
    """perfbench wraps src names by getattr; a rename must not break it."""
    root = Path(__file__).resolve().parent.parent
    request = json.dumps({"argv": ["sign", "--cone", '{"kind":"zsign","sign":1}',
                                   "--word", "e1"],
                          "trace": True, "spans_out": None})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "perfbench/job.py", request],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["error"] is None
    assert report["exit"] == 0


# -- inputs read by serialize's shape-checked readers ---------------------------------

@pytest.mark.parametrize("argv", [
    ("conj-basis", "--group", "f2", "--g", "a", "--h", "b", "--by", "a"),
    ("conj-basis", "--group", "z2", "--g", "e1", "--h", "e2", "--by", "e1"),
    ("closure-criterion", "--group", "f2", "--letters", "[]", "--labels", "[]"),
    ("closure-criterion", "--letters", "[5]", "--labels", "[]"),
    ("closure-criterion", "--letters", '[{"g":"a","h":"b","e":"x"}]',
     "--labels", "[]"),
    ("closure-criterion", "--letters", '[{"g":"a","h":"b","e":true}]',
     "--labels", "[]"),
    ("closure-criterion", "--letters", '[{"g":"a","e":1}]', "--labels", "[]"),
    ("closure-criterion", "--letters", "[]", "--labels", '[{"g":"a"}]'),
    ("closure-criterion", "--letters", "{}", "--labels", "[]"),
])
def test_kernel_inputs_of_the_wrong_shape_exit_2(capsys, argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and err.startswith("error: ")


def test_closure_criterion_letters_read_as_pairs_or_text(capsys):
    results = []
    for g in ([["a", 3]], "a^3", '[["a", 3]]'):
        letters = json.dumps([{"g": g, "h": "b", "e": 1}])
        code, doc = run(capsys, "closure-criterion", "--letters", letters,
                        "--labels", '[{"g":"a","h":"b"}]')
        assert code == 1
        results.append(doc["result"])
    assert results[0] == results[1] == results[2]


def _nested_conjugates(levels):
    return ('{"kind":"conjugate","by":[["x",1]],"base":' * levels
            + '{"kind":"klein","ex":1,"ey":1}' + "}" * levels)


def test_json_nested_past_the_recursion_limit_exits_2(capsys):
    code = main(["sign", "--cone", _nested_conjugates(2000), "--word", "x"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and err.startswith("error: ")
    code, doc = run(capsys, "sign", "--cone", _nested_conjugates(900), "--word", "x")
    assert code == 0 and doc["result"]["sign"] == "+"


def test_named_extension_groups_are_the_named_sequences(capsys):
    for name in ("sol", "zxf2", "zxklein"):
        assert ctx_from_dict(name) == ses_from_dict(name).total
    code, doc = run(capsys, "census", "--group", "zxklein", "--r", "1")
    assert code == 0 and doc["result"]["count"] > 0


def test_group_is_a_name_json_text_or_an_object(capsys):
    klein = {"family": "klein", "gens": ["x", "y"]}
    assert (ctx_from_dict("klein") == ctx_from_dict(json.dumps(klein))
            == ctx_from_dict(klein) == KleinCtx())
    docs = [run(capsys, "census", "--group", g, "--r", "2")[1]["result"]
            for g in ("klein", json.dumps(klein))]
    assert docs[0] == docs[1]


@pytest.mark.parametrize("text, pairs", [
    ("a^2*b^-1", [["a", 2], ["b", -1]]),
    ("  a^2 b^-1 a ", [["a", 2], ["b", -1], ["a", 1]]),
    ('[["b", 3]]', [["b", 3]]),
    ("1", []), ("", []), ("a a^-1", []),
])
def test_word_text_forms(text, pairs):
    assert word_from_pairs(FreeCtx(2), text).pairs() == pairs


def test_word_text_with_a_bad_exponent_exits_2(capsys):
    code = main(["sign", "--cone", '{"kind":"dynamical"}', "--word", "a^x"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and err.startswith("error: ")

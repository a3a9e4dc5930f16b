import json
import os
import subprocess
import sys
from pathlib import Path

from leftorder.cli import main
from leftorder.serialize import cone_from_dict, cone_to_dict, ses_from_dict
from leftorder.cones import (
    KleinCone, dynamical_cone, lex_cone, quad_slope_cone, restrict_cone,
    ses_kernel_embedding, slope_cone, z_cone,
)
from leftorder.actions import conj_cone
from leftorder.surd import rational, sqrt_of
from leftorder.words import KleinCtx


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
    for c in cones:
        assert cone_from_dict(cone_to_dict(c)) == c
    lexc = cones[4]
    wrapped = conj_cone(dynamical_cone(), dynamical_cone().ctx.gens()[0])
    assert cone_from_dict(cone_to_dict(wrapped)) == wrapped
    restr = restrict_cone(lexc, ses_kernel_embedding(sol))
    assert cone_from_dict(cone_to_dict(restr)) == restr


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


def test_orbit_command(capsys):
    code, doc = run(capsys, "orbit", "--cone", '{"kind":"klein","ex":1,"ey":1}',
                    "--conjugators", "x,y")
    assert code == 0
    assert doc["result"]["size"] == 2


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


def test_closure_criterion_command(capsys):
    letters = json.dumps([{"g": "a^3", "h": "b", "e": 1}])
    labels = json.dumps([{"g": "a", "h": "b"}, {"g": "a^2", "h": "b^2"}])
    code, doc = run(capsys, "closure-criterion", "--letters", letters,
                    "--labels", labels)
    assert code == 1
    assert doc["result"]["consistent"] is False


def test_amalgam_nf_command(capsys):
    code, doc = run(capsys, "amalgam-nf", "--word", "a^2 b^-1")
    assert code == 0
    assert doc["result"]["factor_length"] == 1
    assert doc["result"]["canonical_word"] == [["b", 1]]


def test_malnormal_commands(capsys):
    code, doc = run(capsys, "malnormal", "--instance", "free", "--r", "4")
    assert code == 0
    code, doc = run(capsys, "malnormal", "--instance", "square", "--r", "4")
    assert code == 1
    assert doc["witnesses"] == [[[["a", 2]], [["b", 1]]]]


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


def test_equivariance_command(capsys):
    code, doc = run(capsys, "equivariance", "--ses", "sol",
                    "--theta-const", '{"kind":"zsign","sign":1}',
                    "--kernel", '{"kind":"slope","a":[1,0],"variant":"++"}',
                    "--conjugators", "t,a", "--samples", "10")
    assert code == 0
    assert doc["result"]["ok"] is True


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

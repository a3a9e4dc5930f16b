"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Criterion 6 is split: the convexity scan and witness certification pass;
the separate literal-witness test pins the exact triple the criterion names
and is expected to fail, because strictly smaller genuine violations precede
it under every canonical enumeration (see the canonical-first test for the
witness actually returned; the stated triple still certifies as a violation).
"""

import json
import time
from math import gcd

import pytest

from leftorder.actions import (
    ConstantConeMap, cone_equal, conj_cone, diag_conj, equivariance_check,
    orbit,
)
from leftorder.amalgam import (
    amalgam_normal_form, free_product_amalgam, malnormality_check,
    square_amalgam,
)
from leftorder.census import restriction_ball_cone
from leftorder.cli import main
from leftorder.cones import (
    KleinCone, check_cone_axioms_on_ball, detect_slope, dynamical_cone,
    klein_cones, lex_cone, restrict_cone, ses_kernel_embedding, slope_cone,
    z_cone,
)
from leftorder.conrad import conradian_check, convexity_check, cyclic_subgroup
from leftorder.freeprod import basis_word, conj_basis, expand, kernel_decompose, \
    normal_closure_criterion
from leftorder.surd import Mat2, primitive_vec
from leftorder.words import (
    DirectProductCtx, FreeCtx, FreeProductCtx, KleinCtx, SemidirectCtx,
    ZPowCtx, direct_product_ses, semidirect_ses,
)

import random

Z2 = ZPowCtx(2)
KLEIN = KleinCtx()
SOL = SemidirectCtx(Mat2(2, 1, 1, 1))
SOL_SES = semidirect_ses(SOL)
ZZ = FreeProductCtx((ZPowCtx(1, ("a",)), ZPowCtx(1, ("b",))))
VARIANTS = ("++", "+-", "-+", "--")


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:>3} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def run_cli(tmp_path, tag, *argv):
    out = tmp_path / f"{tag}.json"
    code = main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text()), out.read_bytes()


def primitive_pairs(bound):
    out = []
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            if (p, q) == (0, 0) or gcd(abs(p), abs(q)) != 1:
                continue
            if (p, q) != primitive_vec((p, q)):
                continue
            out.append((p, q))
    return out


# -- criterion 1: Klein census -----------------------------------------------------

def test_criterion_01_klein_census(tmp_path):
    t0 = time.monotonic()
    code, doc, _ = run_cli(tmp_path, "c1", "census", "--group", "klein",
                           "--r", "4", "--extend", "8")
    elapsed = time.monotonic() - t0
    survivors = doc["result"]["survivors"]
    got = {json.dumps(c, sort_keys=True) for c in survivors["cones"]}
    want = {json.dumps(restriction_ball_cone(kc.sign, KLEIN, 4).serial(),
                       sort_keys=True) for kc in klein_cones(KLEIN)}
    ok = (code == 0 and survivors["count"] == 4 and got == want
          and elapsed < 60)
    report(1, "klein census r4->8 has exactly the four cones", ok,
           f"{elapsed:.1f}s")


# -- criterion 2: free product identities --------------------------------------------

def test_criterion_02_free_product_identities():
    t0 = time.monotonic()
    gf, hf = ZZ.factors
    rng = random.Random(0)
    checked = 0
    for _ in range(1000):
        i = rng.choice([k for k in range(-4, 5) if k])
        j = rng.choice([k for k in range(-4, 5) if k])
        a_exp, b_exp = rng.randint(-4, 4), rng.randint(-4, 4)
        label = (gf.word([("a", i)]), hf.word([("b", j)]))
        single = expand(basis_word(ZZ, [(*label, 1)]))
        for by_pairs in ([("a", a_exp)], [("b", b_exp)],
                         [("a", a_exp), ("b", b_exp)]):
            by = ZZ.word(by_pairs)
            closed = conj_basis(ZZ, label, by)
            direct = ZZ.mul(ZZ.mul(by, single), ZZ.inv(by))
            assert expand(closed) == direct
            assert closed == kernel_decompose(direct)
        checked += 1
    elapsed = time.monotonic() - t0
    report(2, "conjugation identities on 1000 seeded instances",
           checked == 1000 and elapsed < 10, f"{elapsed:.1f}s")


# -- criterion 3: normal closure case engine -------------------------------------------

def test_criterion_03_case_engine():
    t0 = time.monotonic()
    gf, hf = ZZ.factors
    S = [(gf.word([("a", 1)]), hf.word([("b", 1)])),
         (gf.word([("a", 2)]), hf.word([("b", 2)]))]
    exceptions = []
    for i in range(-4, 5):
        for j in range(-4, 5):
            by = ZZ.word([("a", i), ("b", j)])
            outcomes = [normal_closure_criterion(conj_basis(ZZ, lab, by), S)
                        for lab in S]
            if (i, j) == (0, 0):
                if not all(o.consistent for o in outcomes):
                    exceptions.append((i, j))
            elif not any(not o.consistent for o in outcomes):
                exceptions.append((i, j))
    elapsed = time.monotonic() - t0
    report(3, "closure criterion flags every nontrivial conjugator",
           not exceptions and elapsed < 10,
           f"{elapsed:.1f}s, exceptions={exceptions}")


# -- criterion 4: slope classification cross-check ----------------------------------------

def test_criterion_04_z2_census_matches_slope_cones(tmp_path):
    t0 = time.monotonic()
    code, doc, _ = run_cli(tmp_path, "c4", "census", "--group", "z2",
                           "--r", "2", "--extend", "5")
    survivors = {json.dumps(c, sort_keys=True)
                 for c in doc["result"]["survivors"]["cones"]}
    restrictions = set()
    for a in primitive_pairs(5):
        for v in VARIANTS:
            bc = restriction_ball_cone(slope_cone(a, v).sign, Z2, 2)
            restrictions.add(json.dumps(bc.serial(), sort_keys=True))
    elapsed = time.monotonic() - t0
    ok = code == 0 and survivors == restrictions and elapsed < 120
    report(4, "z2 census survivors = slope cone restrictions", ok,
           f"{len(survivors)} cones, {elapsed:.1f}s")


# -- criterion 5: slope read-back ------------------------------------------------------------

def test_criterion_05_detect_slope_readback():
    t0 = time.monotonic()
    flip = {"+": "-", "-": "+"}
    for p in range(-10, 11):
        for q in range(-10, 11):
            if (p, q) == (0, 0) or gcd(abs(p), abs(q)) != 1:
                continue
            canonical = (p, q) == primitive_vec((p, q))
            for v in VARIANTS:
                res = detect_slope(slope_cone((p, q), v))
                assert res.exact
                assert res.slope.vec == primitive_vec((-q, p))
                want = v if canonical else flip[v[0]] + flip[v[1]]
                assert res.variant == want, ((p, q), v)
    elapsed = time.monotonic() - t0
    report(5, "detect_slope read-back on |a| <= 10, all variants",
           elapsed < 5, f"{elapsed:.1f}s")


# -- criterion 6: convexity of slope-matched subgroups ----------------------------------------

def test_criterion_06a_slope_matched_subgroups_convex():
    t0 = time.monotonic()
    ok = True
    for (p, q) in primitive_pairs(3):
        sub = cyclic_subgroup(Z2, Z2.from_vector((p, q)))
        for v in VARIANTS:
            cone = slope_cone((q, -p), v)  # detects slope [(p, q)]
            assert cone.slope().vec == (p, q)
            if not convexity_check(cone, sub, 6).passed:
                ok = False
    elapsed = time.monotonic() - t0
    report(6, "slope-matched cyclic subgroups convex at r=6",
           ok and elapsed < 10, f"{elapsed:.1f}s")


def test_criterion_06b_nonconvex_witness_certifies():
    cone = slope_cone((1, -1), "++")  # detects slope [(1,1)]
    sub = cyclic_subgroup(Z2, Z2.from_vector((1, 0)))
    rep = convexity_check(cone, sub, 6)
    stated = (Z2.identity(), Z2.from_vector((2, 1)), Z2.from_vector((3, 0)))
    from leftorder.conrad import ConvexityReport
    stated_ok = ConvexityReport(False, 6, stated).certify(cone, sub)
    canonical_ok = (not rep.passed and rep.certify(cone, sub)
                    and rep.witness == (Z2.identity(),
                                        Z2.from_vector((0, -1)),
                                        Z2.from_vector((1, 0))))
    report(6, "x-axis non-convexity witnessed and certified",
           stated_ok and canonical_ok,
           "canonical witness 0 < (0,-1) < (1,0)")


@pytest.mark.known_divergence
def test_criterion_06c_stated_witness_literal():
    # criterion 6 names the returned witness as 0 < (2,1) < (3,0); smaller
    # genuine violations precede that triple in every canonical enumeration,
    # so the literal expectation cannot be met without a rigged scan order
    cone = slope_cone((1, -1), "++")
    sub = cyclic_subgroup(Z2, Z2.from_vector((1, 0)))
    rep = convexity_check(cone, sub, 6)
    stated = (Z2.identity(), Z2.from_vector((2, 1)), Z2.from_vector((3, 0)))
    report(6, "returned witness equals the stated triple",
           rep.witness == stated,
           f"returned {tuple(w.pairs() for w in rep.witness)}")


# -- criterion 7: Klein orbit structure ----------------------------------------------------------

def test_criterion_07_klein_orbits():
    t0 = time.monotonic()
    x, y = KLEIN.gens()
    orbits = []
    remaining = set(klein_cones(KLEIN))
    while remaining:
        rep = orbit(next(iter(sorted(remaining, key=lambda c: (c.ex, c.ey)))),
                    [x, y])
        orbits.append(set(rep.representatives))
        remaining -= set(rep.representatives)
    sizes = sorted(len(o) for o in orbits)
    stabilized = True
    x_sq = KLEIN.word([("x", 2)])
    for c in klein_cones(KLEIN):
        for g in (y, x_sq):
            moved = conj_cone(c, g)
            if cone_equal(moved, c, "ball", 5).verdict == "distinct":
                stabilized = False
    elapsed = time.monotonic() - t0
    report(7, "two orbits of size two; y and x^2 stabilize all cones",
           sizes == [2, 2] and stabilized and elapsed < 5, f"{elapsed:.1f}s")


# -- criterion 8: Sol slope transport --------------------------------------------------------------

def test_criterion_08_sol_slope_transport():
    t0 = time.monotonic()
    lexc = lex_cone(SOL_SES, slope_cone((1, 0), "++", SOL_SES.kernel),
                    z_cone(ctx=SOL_SES.quotient))
    emb = ses_kernel_embedding(SOL_SES)
    kernel = SOL_SES.kernel
    a_mat = SOL.matrix
    slopes = []
    for k in range(1, 7):
        tk = SOL.from_parts((0, 0), k)
        restricted = restrict_cone(conj_cone(lexc, tk), emb)
        simplified = restricted.simplified()
        # transport law is verified against the raw conjugation oracle, not assumed
        tk_inv = SOL.inv(tk)
        for w in kernel.ball(4):
            if w.is_identity():
                continue
            raw = lexc.sign(SOL.mul(SOL.mul(tk_inv, SOL_SES.inject(w)), tk))
            assert restricted.sign(w) == raw == simplified.sign(w)
        det = detect_slope(simplified)
        assert det.exact
        slopes.append(det.slope.vec)
    distinct = len(set(slopes)) == 6
    law = all(slopes[k] == primitive_vec(a_mat.apply_vec(slopes[k - 1]))
              for k in range(1, 6))
    first = slopes[0] == primitive_vec(a_mat.apply_vec((0, 1)))
    elapsed = time.monotonic() - t0
    report(8, "Sol transport: slopes follow the matrix orbit",
           distinct and law and first and elapsed < 30,
           f"slopes={slopes}, {elapsed:.1f}s")


# -- criterion 9: lex/diagonal compatibility and equivariance ----------------------------------------

def test_criterion_09_lex_diag_and_equivariance():
    t0 = time.monotonic()
    rng = random.Random(0)
    prims = primitive_pairs(3)
    ok = True
    for _ in range(200):
        a = prims[rng.randrange(len(prims))]
        kc = slope_cone(a, VARIANTS[rng.randrange(4)], SOL_SES.kernel)
        qc = z_cone(rng.random() < 0.5, SOL_SES.quotient)
        g = SOL.from_parts((rng.randint(-2, 2), rng.randint(-2, 2)),
                           rng.randint(-2, 2))
        via_pair = lex_cone(SOL_SES, *diag_conj((kc, qc), g, SOL_SES))
        via_cone = conj_cone(lex_cone(SOL_SES, kc, qc), g)
        if cone_equal(via_pair, via_cone, "ball", 4).verdict == "distinct":
            ok = False
    # constant maps are equivariant exactly when the constant is fixed
    theta_fixed = ConstantConeMap(z_cone(ctx=SOL_SES.quotient))
    samples = [(SOL.from_parts((1, 0), 1), slope_cone((1, 0), "++", SOL_SES.kernel))]
    fixed_ok = equivariance_check(theta_fixed, SOL_SES, samples, 4).ok

    zxk = DirectProductCtx((ZPowCtx(1, ("z",)), KleinCtx()))
    zxk_ses = direct_product_ses(zxk, kernel_factor=0)
    theta_moved = ConstantConeMap(KleinCone(zxk_ses.quotient, 1, 1))
    moved = equivariance_check(
        theta_moved, zxk_ses,
        [(zxk.word([("x", 1)]), z_cone(ctx=zxk_ses.kernel))], 4)
    elapsed = time.monotonic() - t0
    report(9, "lex commutes with the diagonal action; constant-map law",
           ok and fixed_ok and not moved.ok and elapsed < 30,
           f"{elapsed:.1f}s")


# -- criterion 10: Conradian engine -------------------------------------------------------------------

def test_criterion_10a_slope_and_klein_conradian():
    t0 = time.monotonic()
    ok = all(conradian_check(slope_cone(a, v), 4).passed
             for a in primitive_pairs(3) for v in VARIANTS)
    ok = ok and all(conradian_check(c, 4).passed for c in klein_cones(KLEIN))
    elapsed = time.monotonic() - t0
    report(10, "slope and Klein cones pass the r=4 Conradian scan",
           ok, f"{elapsed:.1f}s")


def test_criterion_10b_lex_witness_pattern():
    t0 = time.monotonic()
    # quotient-side violations: dynamical cone above a central Z kernel
    zxf2 = DirectProductCtx((ZPowCtx(1, ("z",)), FreeCtx(2)))
    ses_q = direct_product_ses(zxf2, kernel_factor=0)
    lex_q = lex_cone(ses_q, z_cone(ctx=ses_q.kernel),
                     dynamical_cone(ses_q.quotient))
    # kernel-side violations: dynamical cone below a Z quotient
    f2xz = DirectProductCtx((FreeCtx(2), ZPowCtx(1, ("z",))))
    ses_k = direct_product_ses(f2xz, kernel_factor=0)
    lex_k = lex_cone(ses_k, dynamical_cone(ses_k.kernel),
                     z_cone(ctx=ses_k.quotient))
    sol_lex = lex_cone(SOL_SES, slope_cone((1, 0), "++", SOL_SES.kernel),
                       z_cone(ctx=SOL_SES.quotient))
    ok = True
    found = 0
    for cone, ses, r in ((lex_q, ses_q, 3), (lex_k, ses_k, 3), (sol_lex, SOL_SES, 4)):
        rep = conradian_check(cone, r, collect_all=True)
        for g, h in rep.witnesses:
            found += 1
            if ses.project(g).is_identity() != ses.project(h).is_identity():
                ok = False  # a mixed pair would contradict the lex dichotomy
    elapsed = time.monotonic() - t0
    report(10, "every lex witness pair is kernel-kernel or quotient-quotient",
           ok and elapsed < 60, f"{found} witnesses, {elapsed:.1f}s")


def test_criterion_10c_dynamical_cone():
    t0 = time.monotonic()
    c = dynamical_cone()
    axioms = check_cone_axioms_on_ball(c, 5)
    rep1 = conradian_check(c, 6)
    rep2 = conradian_check(c, 6)
    reproducible = rep1 == rep2
    if rep1.passed:
        outcome_ok = True  # pass(6) recorded honestly
        detail = "pass(6)"
    else:
        outcome_ok = rep1.certify(c)
        g, h = rep1.witnesses[0]
        detail = f"witness g={g!r}, h={h!r}"
    elapsed = time.monotonic() - t0
    report(10, "dynamical cone: exact axioms at r=5, reproducible Conradian scan",
           axioms.ok and reproducible and outcome_ok and elapsed < 120,
           f"{detail}, {elapsed:.1f}s")


# -- criterion 11: amalgam malnormality ----------------------------------------------------------------

def test_criterion_11_malnormality():
    t0 = time.monotonic()
    free_rep = malnormality_check(free_product_amalgam(), 0, 4)
    sq = square_amalgam()
    sq_rep = malnormality_check(sq, 0, 4)
    witness_ok = False
    if not sq_rep.passed:
        aa, ww = sq_rep.witness
        # consistent with a^2 = b^2: the central core element is the culprit
        witness_ok = (sq_rep.certify(sq)
                      and aa == sq.word([("a", 2)])
                      and amalgam_normal_form(sq, aa.syllables)[1] == ())
    elapsed = time.monotonic() - t0
    report(11, "free factor malnormal; square amalgam witness via a^2=b^2",
           free_rep.passed and witness_ok and elapsed < 10, f"{elapsed:.1f}s")


# -- criterion 12: determinism ----------------------------------------------------------------------------

def test_criterion_12_byte_determinism(tmp_path):
    t0 = time.monotonic()
    commands = [
        ("census-klein", ["census", "--group", "klein", "--r", "4",
                          "--extend", "8"]),
        ("census-z2", ["census", "--group", "z2", "--r", "2", "--extend", "5"]),
        ("verify-identities", ["verify-identities", "--count", "1000"]),
        ("sign", ["sign", "--cone", '{"kind":"klein","ex":1,"ey":1}',
                  "--word", "y^-3 x"]),
        ("axioms", ["axioms", "--cone", '{"kind":"klein","ex":1,"ey":1}',
                    "--r", "3"]),
        ("orbit", ["orbit", "--cone", '{"kind":"klein","ex":1,"ey":1}',
                   "--conjugators", "x,y"]),
        ("conradian", ["conradian", "--cone",
                       '{"kind":"dynamical"}', "--r", "4"]),
        ("convexity", ["convexity", "--cone",
                       '{"kind":"slope","a":[1,-1],"variant":"++"}',
                       "--subgroup", "e1", "--r", "6"]),
        ("slope", ["slope", "--cone",
                   '{"kind":"slope","a":[2,3],"variant":"+-"}']),
        ("lex", ["lex", "--ses", "sol",
                 "--kernel", '{"kind":"slope","a":[1,0],"variant":"++"}',
                 "--quotient", '{"kind":"zsign","sign":1}', "--word", "t"]),
        ("kernel-decompose", ["kernel-decompose", "--word", "a b a^-1 b^-1"]),
        ("conj-basis", ["conj-basis", "--g", "a", "--h", "b", "--by", "a b"]),
        ("closure-criterion", ["closure-criterion",
                               "--letters", '[{"g":"a^3","h":"b","e":1}]',
                               "--labels",
                               '[{"g":"a","h":"b"},{"g":"a^2","h":"b^2"}]']),
        ("amalgam-nf", ["amalgam-nf", "--word", "a^2 b^-1"]),
        ("malnormal", ["malnormal", "--instance", "square", "--r", "4"]),
        ("equivariance", ["equivariance", "--ses", "sol",
                          "--theta-const", '{"kind":"zsign","sign":1}',
                          "--kernel", '{"kind":"slope","a":[1,0],"variant":"++"}',
                          "--conjugators", "t,a", "--samples", "20"]),
    ]
    mismatched = []
    for tag, argv in commands:
        _, _, b1 = run_cli(tmp_path, tag + "-1", *argv)
        _, _, b2 = run_cli(tmp_path, tag + "-2", *argv)
        if b1 != b2:
            mismatched.append(tag)
    elapsed = time.monotonic() - t0
    report(12, "identical configs produce identical bytes",
           not mismatched, f"{len(commands)} commands, {elapsed:.1f}s")

import random

import pytest

from leftorder.conrad import (
    cofinality_witness, conradian_check, convexity_check, cyclic_subgroup,
    order_hom_check,
)
from leftorder.cones import (
    Cone, KleinCone, dynamical_cone, klein_cones, lex_cone, slope_cone, z_cone,
)
from leftorder.errors import InvalidHomError
from leftorder.serialize import word_from_pairs
from leftorder.surd import Mat2
from leftorder.words import (
    DirectProductCtx, FreeCtx, FreeProductCtx, KleinCtx, SemidirectCtx, ZPowCtx,
    direct_product_ses, semidirect_ses,
)

Z1 = ZPowCtx(1)
Z2 = ZPowCtx(2)
KLEIN = KleinCtx()
F2XZ = DirectProductCtx((ZPowCtx(1, ("z",)), FreeCtx(2)))
F2XZ_SES = direct_product_ses(F2XZ, kernel_factor=0)
SOL_SES = semidirect_ses(SemidirectCtx(Mat2(2, 1, 1, 1)))


# -- conradian_check -------------------------------------------------------------

def test_slope_cones_conradian_at_r4():
    for v in ("++", "+-", "-+", "--"):
        assert conradian_check(slope_cone((2, 3), v), 4).passed


def test_klein_cones_conradian_at_r4():
    for c in klein_cones(KLEIN):
        assert conradian_check(c, 4).passed


def test_lex_witness_pattern_on_dynamical_quotient():
    # quotient carries the dynamical cone; any witness found must project to a
    # pair that is entirely kernel or entirely nontrivial in the quotient
    c = lex_cone(F2XZ_SES, z_cone(ctx=F2XZ_SES.kernel),
                 dynamical_cone(F2XZ_SES.quotient))
    rep = conradian_check(c, 3, collect_all=True)
    for g, h in rep.witnesses:
        qg = F2XZ_SES.project(g)
        qh = F2XZ_SES.project(h)
        assert qg.is_identity() == qh.is_identity()
    if not rep.passed:
        assert rep.certify(c)


def _pairwise_conradian(c, r):
    """Every positive pair (g, h) of B_r with g^-1 h g^2 not positive, in scan order."""
    ctx = c.ctx
    positives = [w for w in ctx.ball(r)[1:] if c.sign(w) == 1]
    return [(g, h) for g in positives for h in positives
            if c.sign(ctx.mul(ctx.mul(ctx.inv(g), h), ctx.mul(g, g))) != 1]


@pytest.mark.parametrize("r", [3, 4])
@pytest.mark.parametrize("which", ["dynamical", "slope", "klein", "sol-lex"])
def test_conradian_rows_match_a_pairwise_scan(which, r):
    c = {
        "dynamical": dynamical_cone(),
        "slope": slope_cone((2, 3), "+-"),
        "klein": KleinCone(KLEIN, 1, -1),
        "sol-lex": lex_cone(SOL_SES, slope_cone((1, 0), "++", SOL_SES.kernel),
                            z_cone(ctx=SOL_SES.quotient)),
    }[which]
    expected = _pairwise_conradian(c, r)
    rep = conradian_check(c, r, True)
    assert rep.passed == (not expected) and list(rep.witnesses) == expected
    first = conradian_check(c, r)
    assert first.passed == (not expected) and list(first.witnesses) == expected[:1]
    assert (which == "dynamical") == bool(expected)


def test_conradian_witness_monotone_in_radius():
    c = dynamical_cone()
    rep = conradian_check(c, 4)
    if not rep.passed:
        g, h = rep.witnesses[0]
        bigger = conradian_check(c, 5, collect_all=True)
        assert (g, h) in bigger.witnesses


def test_conradian_witness_self_certifies():
    c = dynamical_cone()
    rep = conradian_check(c, 5)
    if not rep.passed:
        assert rep.certify(c)


# -- convexity_check ----------------------------------------------------------------

def test_slope_matched_subgroup_convex():
    # the subgroup generated by the detected slope direction is convex
    for (p, q) in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1)):
        sub = cyclic_subgroup(Z2, Z2.from_vector((p, q)))
        for v in ("++", "+-", "-+", "--"):
            cone = slope_cone((q, -p), v)
            assert cone.slope().vec == _canon(p, q)
            assert convexity_check(cone, sub, 5).passed


def _canon(p, q):
    from leftorder.surd import primitive_vec
    return primitive_vec((p, q))


def test_x_axis_not_convex_under_diagonal_slope():
    cone = slope_cone((1, -1), "++")  # detects slope [(1,1)]
    sub = cyclic_subgroup(Z2, Z2.from_vector((1, 0)))
    rep = convexity_check(cone, sub, 6)
    assert not rep.passed
    assert rep.certify(cone, sub)
    c1, f, c2 = rep.witness
    assert c1 == Z2.identity()
    assert f == Z2.from_vector((0, -1))
    assert c2 == Z2.from_vector((1, 0))


def _convexity_triple_loop(c, member, r):
    """The first (c1, f, c2) of the plain triple loop, with no memo, or None."""
    ctx = c.ctx
    ball = ctx.ball(r)
    members = [w for w in ball if member(w)]
    outsiders = [w for w in ball if not member(w)]
    for c1 in members:
        for f in outsiders:
            if c.sign(ctx.mul(ctx.inv(c1), f)) != 1:
                continue
            for c2 in members:
                if c.sign(ctx.mul(ctx.inv(f), c2)) == 1:
                    return c1, f, c2
    return None


def _convexity_cases(family, rng):
    """(cone, subgroup generator, radius) drawn for one family."""
    if family == "slope":
        a = (rng.randint(-3, 3), rng.randint(-3, 3)) if rng.random() < 0.7 else (0, 1)
        a = a if a != (0, 0) else (1, 2)
        cone = slope_cone(a, rng.choice(("++", "+-", "-+", "--")))
        gen = (rng.randint(-2, 2), rng.randint(-2, 2))
        if gen == (0, 0) or rng.random() < 0.3:   # the slope's own line: convex
            gen = cone.slope().vec
        return cone, Z2.from_vector(gen), 5
    if family == "klein":
        cone = KleinCone(KLEIN, rng.choice((1, -1)), rng.choice((1, -1)))
        gen = KLEIN.word([(rng.randrange(2), rng.choice((-2, -1, 1, 2)))
                          for _ in range(rng.randint(1, 2))])
        return cone, gen, 5
    f2 = FreeCtx(2)
    if rng.random() < 0.3:   # <a b^-1 a> meets B_3 in three members and passes
        return dynamical_cone(f2), f2.word([("a", 1), ("b", -1), ("a", 1)]), 3
    gen = f2.word([(rng.randrange(2), rng.choice((-1, 1)))
                   for _ in range(rng.randint(1, 3))])
    return dynamical_cone(f2), gen, rng.choice((2, 3))


@pytest.mark.parametrize("family", ["slope", "klein", "f2-dynamical"])
def test_convexity_matches_the_triple_loop(family):
    rng = random.Random(len(family))
    passed = failed = 0
    for _ in range(12):
        cone, gen, r = _convexity_cases(family, rng)
        if gen.is_identity():
            continue
        member = cyclic_subgroup(cone.ctx, gen)
        rep = convexity_check(cone, member, r)
        expect = _convexity_triple_loop(cone, member, r)
        assert rep.witness == expect and rep.passed == (expect is None)
        passed, failed = passed + rep.passed, failed + (not rep.passed)
    assert passed and failed


def test_convexity_scan_signs_each_outsider_row_once(monkeypatch):
    # the perfbench job: <e1 e2> is the slope line of P_(1,-1)^++, so the
    # scan passes and reads every (c1, f); the plain triple loop signs 29,250 words
    calls = []
    sign = Cone.sign
    monkeypatch.setattr(Cone, "sign", lambda self, w: calls.append(1) or sign(self, w))
    rep = convexity_check(slope_cone((1, -1), "++"),
                          cyclic_subgroup(Z2, Z2.from_vector((1, 1))), 12)
    assert rep.passed
    assert len(calls) <= 9000


def test_stated_triple_is_a_genuine_violation():
    # 0 < (2,1) < (3,0) violates convexity of <(1,0)> under the same cone
    cone = slope_cone((1, -1), "++")
    sub = cyclic_subgroup(Z2, Z2.from_vector((1, 0)))
    from leftorder.conrad import ConvexityReport
    stated = ConvexityReport(False, 6, (Z2.identity(),
                                        Z2.from_vector((2, 1)),
                                        Z2.from_vector((3, 0))))
    assert stated.certify(cone, sub)


def test_cyclic_subgroup_exact_on_z():
    # membership in <w> on Z^n is decided exactly, beyond any power bound
    member = cyclic_subgroup(Z1, Z1.from_vector((1,)))
    assert member(Z1.from_vector((65,))) and member(Z1.from_vector((-100,)))
    triples = cyclic_subgroup(Z1, Z1.from_vector((3,)))
    assert triples(Z1.from_vector((-300,))) and not triples(Z1.from_vector((7,)))


def test_cyclic_subgroup_non_member_on_z2():
    member = cyclic_subgroup(Z2, Z2.from_vector((2, -4)))
    assert member(Z2.from_vector((-200, 400))) and member(Z2.identity())
    assert not member(Z2.from_vector((1, -2)))
    assert not member(Z2.from_vector((2, -3)))
    trivial = cyclic_subgroup(Z2, Z2.identity())
    assert trivial(Z2.identity()) and not trivial(Z2.from_vector((0, 1)))


def _power_table(ctx, w, bound):
    powers, p, q = {ctx.identity()}, ctx.identity(), ctx.identity()
    for _ in range(bound):
        p, q = ctx.mul(p, w), ctx.mul(q, ctx.inv(w))
        powers |= {p, q}
    return powers


ZZ_FREE = FreeProductCtx((ZPowCtx(1, ("a",)), ZPowCtx(1, ("b",))))


@pytest.mark.parametrize("ctx", [FreeCtx(2), ZZ_FREE], ids=["f2", "zz-free"])
def test_cyclic_subgroup_exact_on_free_laws(ctx):
    # w = p root^m p^-1: every power of w is in, at any length, and nothing
    # else is; the ball of radius 5 agrees with the power table
    texts = ["a", "a^3", "a b", "a b a", "a b a b", "b a^2 b^-1", "a b a^-1 b",
             "b^2 a b a^-1 b^-2", "a^2 b a^-1 b^-1 a^-2", "b a b a b^-1"]
    ball = ctx.ball(5)
    for text in texts:
        w = word_from_pairs(ctx, text)
        member = cyclic_subgroup(ctx, w)
        table = _power_table(ctx, w, 5)
        assert [u for u in ball if member(u)] == [u for u in ball if u in table]
        for k in (65, -66, 200):   # |w^k| > 64: past the old 64-power table
            assert member(w ** k) and w ** k not in _power_table(ctx, w, 64)
            assert not member(ctx.mul(w ** k, ctx.word([("b", 1)])))
    root = word_from_pairs(ctx, "b a b^-1")
    squares = cyclic_subgroup(ctx, root ** 2)
    assert squares(root ** 130) and not squares(root ** 131)
    assert cyclic_subgroup(ctx, ctx.identity())(ctx.identity())
    assert not cyclic_subgroup(ctx, ctx.identity())(root)


def test_klein_y_subgroup_convex():
    c = KleinCone(KLEIN, 1, 1)
    sub = cyclic_subgroup(KLEIN, KLEIN.word([("y", 1)]))
    assert convexity_check(c, sub, 5).passed


# -- cofinality_witness ---------------------------------------------------------------

def test_klein_y_dominated_by_x():
    c = KleinCone(KLEIN, 1, 1)
    y, x = KLEIN.word([("y", 1)]), KLEIN.word([("x", 1)])
    rep = cofinality_witness(c, y, x, 20)
    assert rep.holds and rep.bound == 20


def test_slope_cone_cofinality():
    c = slope_cone((1, 0), "++")
    rep = cofinality_witness(c, Z2.from_vector((0, 1)), Z2.from_vector((1, 0)), 20)
    assert rep.holds


def test_cofinality_fails_on_itself():
    c = slope_cone((1, 0), "++")
    u = Z2.from_vector((1, 0))
    rep = cofinality_witness(c, u, u, 5)
    assert not rep.holds and rep.failed_at == 1


# -- order_hom_check -------------------------------------------------------------------

def test_rank_one_identity_hom_passes():
    c = z_cone(ctx=Z1)
    assert order_hom_check(c, lambda w: Z1.vector(w)[0], 4).passed


def test_first_coordinate_hom_passes_for_matching_slope():
    c = slope_cone((1, 0), "++")
    assert order_hom_check(c, lambda w: Z2.vector(w)[0], 4).passed


def test_second_coordinate_hom_witness():
    c = slope_cone((1, 0), "++")
    rep = order_hom_check(c, lambda w: Z2.vector(w)[1], 4)
    assert not rep.passed
    assert rep.witness == (Z2.identity(), Z2.from_vector((1, -1)))


def test_non_hom_rejected():
    c = slope_cone((1, 0), "++")
    with pytest.raises(InvalidHomError):
        order_hom_check(c, lambda w: Z2.vector(w)[0] ** 2, 3)

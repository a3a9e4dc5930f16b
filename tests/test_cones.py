import random
import time

import pytest

from leftorder.cones import (
    Cone, ConjugateCone, DynamicalCone, Embedding, KleinCone, RestrictionCone,
    check_cone_axioms_on_ball, conj_cone, cyclic_embedding, detect_slope,
    dynamical_cone, klein_cones, lex_cone, quad_slope_cone, restrict_cone,
    ses_kernel_embedding, slope_cone, z_cone,
)
from leftorder.errors import (
    InsufficientBasepointsError, InvalidConeError, InvalidEmbeddingError,
    InvalidSlopeError, NoSignError, ResourceLimitError, WrongConstructorError,
)
from leftorder.surd import (
    LIFT_BITS_CAP, Mat2, mat2, mobius_apply, mobius_cover, quad, rational,
    sign_int_surd, sqrt_of,
)
from leftorder.words import (
    DirectProductCtx, FreeCtx, KleinCtx, SemidirectCtx, Word, ZPowCtx,
    direct_product_ses, semidirect_ses,
)

Z2 = ZPowCtx(2)
Z1 = ZPowCtx(1)
KLEIN = KleinCtx()
F2 = FreeCtx(2)
SOL = SemidirectCtx(Mat2(2, 1, 1, 1))
SOL_SES = semidirect_ses(SOL)
ZXF2 = DirectProductCtx((ZPowCtx(1, ("z",)), FreeCtx(2)))
ZXF2_SES = direct_product_ses(ZXF2, kernel_factor=0)


def vec(m, n):
    return Z2.from_vector((m, n))


# -- slope cones ---------------------------------------------------------------

def test_slope_cone_strict_halfplane():
    c = slope_cone((1, 0), "++")
    assert c.sign(vec(1, -5)) == 1  # a1 m + a2 n = 1 > 0


def test_slope_cone_on_line_excluded_variant():
    # a = (1,-1): (-1,-1) lies on the line; (1,1) = c(-1,-1) forces c = -1 < 0
    c = slope_cone((1, -1), "++")
    assert c.sign(vec(-1, -1)) == -1
    assert slope_cone((1, -1), "+-").sign(vec(-1, -1)) == 1


def test_slope_cone_on_line_vertical():
    # a = (0,1): (5,0) is on the line, (-1,0) = c(5,0) gives c = -1/5 < 0
    c = slope_cone((0, 1), "++")
    assert c.sign(vec(5, 0)) == -1
    assert slope_cone((0, 1), "+-").sign(vec(5, 0)) == 1


def test_slope_cone_canonicalization():
    assert slope_cone((1, 1), "++").a == (1, 1)
    assert slope_cone((2, 2), "+-") == slope_cone((1, 1), "+-")
    # negating a flips both variant characters and keeps the same set
    c1, c2 = slope_cone((-1, 2), "++"), slope_cone((1, -2), "--")
    assert c1 == c2
    rng = random.Random(0)
    for _ in range(200):
        m, n = rng.randint(-6, 6), rng.randint(-6, 6)
        if (m, n) == (0, 0):
            continue
        for v in ("++", "+-", "-+", "--"):
            lhs = slope_cone((3, -5), v).sign(vec(m, n))
            rhs = slope_cone((-3, 5), v).sign(vec(m, n))
            assert lhs == -rhs  # opposite a with same variant is the reverse cone


def test_slope_cone_rejects_zero():
    with pytest.raises(InvalidSlopeError):
        slope_cone((0, 0), "++")


def test_identity_has_no_sign():
    with pytest.raises(NoSignError):
        slope_cone((1, 0), "++").sign(Z2.identity())


def test_quad_slope_cone():
    c = quad_slope_cone((rational(1), sqrt_of(2)), "+")
    assert c.sign(vec(1, 1)) == 1   # 1 + sqrt(2) > 0
    assert c.sign(vec(-2, 1)) == -1  # sqrt(2) - 2 < 0
    assert quad_slope_cone((rational(1), sqrt_of(2)), "-").sign(vec(1, 1)) == -1


def test_quad_slope_cone_is_stored_in_canonical_form():
    # one record per cone: the normal (1, a2/a1), the side turned over when a1 < 0
    root2 = sqrt_of(2)
    c = quad_slope_cone((rational(1), root2), "+")
    assert c.a == (rational(1), root2) and c.positive_side == 1
    assert quad_slope_cone((rational(2), root2.scaled(2)), "+") == c
    assert quad_slope_cone((rational(-1), -root2), "-") == c
    # against the raw rule, positive iff a1 m + a2 n has the chosen sign
    rng = random.Random(5)
    for _ in range(40):
        a1 = quad(rng.randint(-4, 4), rng.randint(-3, 3), rng.randint(1, 3), 2)
        a2 = quad(rng.randint(-4, 4), rng.randint(-3, 3), rng.randint(1, 3), 2)
        if a1.is_zero() or a2.is_zero() or (a2 / a1).is_rational():
            continue
        side = rng.choice("+-")
        c = quad_slope_cone((a1, a2), side)
        assert c.a[0] == rational(1)
        for w in Z2.ball(4)[1:]:
            m, n = Z2.vector(w)
            raw = (a1.scaled(m) + a2.scaled(n)).sign()
            assert c.sign(w) == (raw if side == "+" else -raw), (a1, a2, side, m, n)


def test_quad_slope_rejects_rational_ratio():
    with pytest.raises(WrongConstructorError):
        quad_slope_cone((rational(2), rational(3)), "+")
    with pytest.raises(WrongConstructorError):
        quad_slope_cone((sqrt_of(2), sqrt_of(2)), "+")
    with pytest.raises(WrongConstructorError):
        quad_slope_cone((rational(1), rational(0)), "+")


def test_z_cone():
    pos = z_cone()
    assert pos.sign(Z1.from_vector((3,))) == 1
    assert pos.sign(Z1.from_vector((-1,))) == -1
    assert z_cone(positive=False).sign(Z1.from_vector((3,))) == -1


# -- Klein cones -----------------------------------------------------------------

def test_klein_cone_sign_rule():
    c = KleinCone(KLEIN, 1, 1)
    assert c.sign(KLEIN.word([("y", -3), ("x", 1)])) == 1  # x-exponent decides
    assert c.sign(KLEIN.word([("y", 2)])) == 1
    assert KleinCone(KLEIN, 1, -1).sign(KLEIN.word([("y", 2)])) == -1


def test_klein_cones_four_and_distinct():
    cones = klein_cones(KLEIN)
    assert len(cones) == 4
    x, y = KLEIN.gens()
    for i, c1 in enumerate(cones):
        for c2 in cones[i + 1:]:
            assert c1.sign(x) != c2.sign(x) or c1.sign(y) != c2.sign(y)
    # (+,+) vs (+,-) differ on y; (+,+) vs (-,+) differ on x
    assert cones[0].sign(y) != cones[1].sign(y)
    assert cones[0].sign(x) != cones[2].sign(x)


# -- lex cones ---------------------------------------------------------------------

def test_lex_sol_examples():
    c = lex_cone(SOL_SES, slope_cone((1, 0), "++", SOL_SES.kernel), z_cone(ctx=SOL_SES.quotient))
    t = SOL.word([("t", 1)])
    assert c.sign(t) == 1                          # quotient decides
    assert c.sign(SOL.from_parts((0, 3), 0)) == 1  # on-line kernel tie, c > 0
    assert c.sign(SOL.from_parts((0, -3), 0)) == -1


def test_lex_direct_product_kernel_part():
    c = lex_cone(ZXF2_SES, z_cone(ctx=ZXF2_SES.kernel), dynamical_cone(ZXF2_SES.quotient))
    w = ZXF2.word([("z", 1)])
    assert c.sign(w) == 1


def test_lex_dichotomy_unfolds():
    rng = random.Random(1)
    kc = slope_cone((1, 0), "++", SOL_SES.kernel)
    qc = z_cone(ctx=SOL_SES.quotient)
    c = lex_cone(SOL_SES, kc, qc)
    for _ in range(300):
        v = (rng.randint(-4, 4), rng.randint(-4, 4))
        k = rng.randint(-3, 3)
        w = SOL.from_parts(v, k)
        if w.is_identity():
            continue
        h = SOL_SES.project(w)
        if not h.is_identity():
            assert c.sign(w) == qc.sign(h)
        else:
            assert c.sign(w) == kc.sign(SOL_SES.kernel_pull(w))


def test_lex_cone_context_check():
    with pytest.raises(InvalidConeError):
        lex_cone(SOL_SES, z_cone(), z_cone(ctx=SOL_SES.quotient))


# -- dynamical cone ------------------------------------------------------------------

def test_dynamical_generator_signs():
    c = dynamical_cone()
    a, b = c.ctx.gens()
    assert c.sign(a) == 1        # translation by 2 moves sqrt(2) up
    assert c.sign(a.inv()) == -1
    assert c.sign(b) == -c.sign(b.inv())


def test_dynamical_axioms_small_ball():
    c = dynamical_cone()
    assert check_cone_axioms_on_ball(c, 3).ok


def test_dynamical_word_fixing_first_basepoint():
    # a b^-1 a has matrix -[[3,4],[2,3]]; the Mobius map fixes sqrt(2),
    # so the sign comes from the winding or the second basepoint
    c = dynamical_cone()
    w = c.ctx.word([("a", 1), ("b", -1), ("a", 1)])
    from leftorder.surd import mobius_apply
    assert mobius_apply(mat2([[3, 4], [2, 3]]), sqrt_of(2)) == sqrt_of(2)
    assert c.sign(w) in (1, -1)
    assert c.sign(w) == -c.sign(w.inv())


def test_dynamical_sign_of_long_powers():
    # a power's lift is squared up from the letter's, not composed per letter
    c = dynamical_cone()
    a, b = c.ctx.gens()
    assert c.sign(c.ctx.word([("a", 5000)])) == c.sign(a)
    assert c.sign(c.ctx.word([("b", -7000)])) == -c.sign(b)
    assert c.sign(c.ctx.word([("a", 5001), ("b", -3)])) == \
        -c.sign(c.ctx.word([("b", 3), ("a", -5001)]))
    assert c.sign(c.ctx.word([("a", 10**18)])) == c.sign(a)
    assert c.sign(c.ctx.word([("b", -10**18)])) == -c.sign(b)


def test_dynamical_power_sign_matches_letter_by_letter():
    from leftorder.cones import _lift_compose
    rng = random.Random(7)
    shared = dynamical_cone()
    for _ in range(60):
        pairs = [(rng.randrange(2), rng.choice([-1, 1]) * rng.randint(1, 40))
                 for _ in range(rng.randint(1, 3))]
        w = F2.word(pairs)
        if w.is_identity():
            continue
        fresh = dynamical_cone()
        letters = fresh._letters()
        steps = [(g, 1 if e > 0 else -1) for g, e in w.syllables
                 for _ in range(abs(e))]
        el = letters[steps[0]]
        for step in steps[1:]:
            el = _lift_compose(el, letters[step])
        expected = fresh._sign_of_element(el)
        assert fresh.sign(w) == shared.sign(w) == expected, w


def _det1(rng):
    """A seeded det-1 matrix with entries in [-9, 9]; c = 0 about a fifth of the time."""
    while True:
        if rng.random() < 0.2:
            e = rng.choice((-1, 1))
            return Mat2(e, rng.randint(-9, 9), 0, e)
        a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        if a * d - b * c == 1:
            return Mat2(a, b, c, d)


def _lift_pairs(rng, count):
    """Seeded det-1 pairs: random ones, m with m^-1, and m with m^-1 u for
    u = +-[[1, k], [0, 1]], whose product has c12 = 0 whatever the sign of c1 c2."""
    pairs = []
    for _ in range(count):
        m = _det1(rng)
        e, k = rng.choice((-1, 1)), rng.randint(-9, 9)
        pairs += [(m, _det1(rng)), (m, m.inverse()), (m, m.inverse() @ Mat2(e, e * k, 0, e))]
    return pairs


def test_lift_product_and_inverse_act_on_the_cover():
    # the reference is the action alone: (m, delta) moves (x, n) to
    # mobius_cover(m, x, n + delta), so each check is one mobius_cover per factor
    from leftorder.cones import _Lifted, _lift_compose, _lift_inverse
    rng = random.Random(19)

    def act(el, pt):
        return mobius_cover(el.mat, pt[0], pt[1] + el.delta)

    points = []
    for _ in range(6):
        x = quad(rng.randint(-20, 20), rng.choice((-1, 1)) * rng.randint(1, 9),
                 rng.randint(1, 9), rng.choice((2, 3, 5)))
        points += [((x.p, x.q, x.r, x.d), n) for n in (-1, 0, 1)]
    pairs = _lift_pairs(rng, 700)
    assert any(m1.c * m2.c > 0 and (m1 @ m2).c == 0 for m1, m2 in pairs)
    assert any(m1.c * m2.c < 0 and (m1 @ m2).c == 0 for m1, m2 in pairs)
    assert any(m1.c == 0 for m1, _ in pairs) and any(m2.c == 0 for _, m2 in pairs)
    for m1, m2 in pairs:
        e1, e2 = _Lifted(m1, rng.randint(-3, 3)), _Lifted(m2, rng.randint(-3, 3))
        product, inverse = _lift_compose(e1, e2), _lift_inverse(e1)
        assert product.mat == m1 @ m2 and inverse.mat == m1.inverse()
        for pt in points:
            assert act(product, pt) == act(e1, act(e2, pt)), (m1, m2, pt)
            assert act(inverse, act(e1, pt)) == pt == act(e1, act(inverse, pt)), (m1, pt)


def test_dynamical_totality_ball6():
    c = dynamical_cone()
    for w in c.ctx.ball(6):
        if not w.is_identity():
            assert c.sign(w) in (1, -1)


def test_dynamical_unfaithful_images_guarded():
    # both generators mapped to the same matrix: a b^-1 acts trivially, and
    # the insufficient-basepoints guard must fire rather than invent a sign
    from leftorder.cones import DynamicalCone
    from leftorder.errors import InsufficientBasepointsError
    m = mat2([[1, 2], [0, 1]])
    c = DynamicalCone(F2, (m, m), (sqrt_of(2), sqrt_of(3)))
    w = F2.word([("a", 1), ("b", -1)])
    with pytest.raises(InsufficientBasepointsError):
        c.sign(w)
    with pytest.raises(InsufficientBasepointsError):
        c.sign_of_product([F2.word([("a", 1)]), F2.word([("b", -1)])])


def test_dynamical_rational_basepoint_refused():
    # a rational point can be the pole of an integer matrix; an irrational one never is
    images = (mat2([[1, 2], [0, 1]]), mat2([[1, 0], [2, 1]]))
    for points in ((rational(1, 2), sqrt_of(2)), (sqrt_of(3), rational(0)), (sqrt_of(4),)):
        with pytest.raises(InvalidConeError, match="irrational"):
            DynamicalCone(F2, images, points)


def hyperbolic_cone():
    """a acts by the Anosov [[2,1],[1,1]], so the lift of a^k grows like 1.39 k bits."""
    return DynamicalCone(F2, (mat2([[2, 1], [1, 1]]), mat2([[1, 0], [2, 1]])),
                         (sqrt_of(2), sqrt_of(3)))


def test_dynamical_lifted_power_cap_edges():
    # row sum 3 has 2 bits, for [[2,1],[1,1]] and for its inverse
    c = hyperbolic_cone()
    k = LIFT_BITS_CAP // 2
    for sign in (1, -1):
        assert c.sign(F2.word([("a", sign * k)])) == c.sign(F2.word([("a", sign)]))
        for e in (k + 1, 10 ** 12, 10 ** 18):
            t0 = time.monotonic()
            with pytest.raises(ResourceLimitError):
                c.sign(F2.word([("a", sign * e)]))
            assert time.monotonic() - t0 < 0.5  # refused before any squaring


def test_dynamical_lift_of_a_product_capped():
    # each power is under the cap, but their product's lift would pass it:
    # a^k has about 1.39 k bits, so a^(3 cap / 8) has about 0.52 cap bits
    c = hyperbolic_cone()
    k = LIFT_BITS_CAP // 8
    assert c.sign(F2.word([("a", k), ("b", 1), ("a", k)])) == 1
    with pytest.raises(ResourceLimitError):
        c.sign(F2.word([("a", 3 * k), ("b", 1), ("a", 3 * k)]))
    with pytest.raises(ResourceLimitError):
        c.sign(F2.word([("a", k), ("b", 1)] * 8))


def test_dynamical_sign_of_product_matches_mul():
    c = dynamical_cone()
    rng = random.Random(2)
    for _ in range(200):
        u = _rand_free(rng)
        v = _rand_free(rng)
        uv = c.ctx.mul(u, v)
        if uv.is_identity():
            with pytest.raises(NoSignError):
                c.sign_of_product([u, v])
        else:
            assert c.sign_of_product([u, v]) == c.sign(uv)


def _point_rule_cones():
    """The default cone and one on other images and basepoints."""
    other = DynamicalCone(FreeCtx(2), (mat2([[1, 3], [0, 1]]), mat2([[1, 0], [3, 1]])),
                          (sqrt_of(5), sqrt_of(7)))
    return [dynamical_cone(), other]


@pytest.mark.parametrize("which", [0, 1])
def test_dynamical_point_rule_matches_composed_product(which):
    # sign_of_product reads cover points; Cone.sign_of_product multiplies the
    # words and signs the composed lift.  Every product of 1-4 factors must
    # agree, trivial ones raising NoSignError on both paths.
    c = _point_rule_cones()[which]
    ctx = c.ctx
    pool = ctx.ball(4) + [ctx.word(p) for p in (
        [("a", 10**18)], [("b", -10**18)], [("a", -10**18), ("b", 7)],
        [("b", 10**18 - 1), ("a", 2), ("b", -3)])]
    rng = random.Random(31 + which)
    outcomes = set()
    for _ in range(2000):
        words = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        expected = _sign_or_trivial(lambda ws: Cone.sign_of_product(c, ws), words)
        assert _sign_or_trivial(c.sign_of_product, words) == expected, words
        outcomes.add(expected)
    assert outcomes == {1, -1, "trivial"}
    for w in pool[1:]:
        for words in ([w, ctx.inv(w)], [ctx.inv(w), w],
                      [w, pool[5], ctx.inv(pool[5]), ctx.inv(w)]):
            with pytest.raises(NoSignError):
                Cone.sign_of_product(c, words)
            with pytest.raises(NoSignError):
                c.sign_of_product(words)


def _sign_or_trivial(sign_of_product, words):
    try:
        return sign_of_product(words)
    except NoSignError:
        return "trivial"


def test_dynamical_point_rule_on_foreign_and_raw_words():
    # words of an equal context, and unnormalized ones, go through normalize
    c = dynamical_cone()
    raw = Word(c.ctx, ((0, 1), (0, 1), (1, -1)))
    expected = c.sign(c.ctx.word([("a", 2), ("b", -1)]))
    assert c.sign_of_product([raw]) == expected
    assert c.sign_of_product([F2.word([("a", 2)]), F2.word([("b", -1)])]) == expected


def _row_cone(which):
    """A cone on F2 and the word g it is conjugated by (1 for none)."""
    c = dynamical_cone()
    ctx = c.ctx
    g = ctx.word([("a", 1), ("b", -2)])
    ab = ctx.word([("a", 1), ("b", 1)])
    opaque = RestrictionCone(c, Embedding(ctx, ctx, lambda w: ctx.conj(ab, w)))
    return {
        "default": (c, ctx.identity()),
        "conjugate": (conj_cone(c, g), g),
        "wrapper": (ConjugateCone(c, g), g),
        "ab-winds": (DynamicalCone(ctx, c.images, (quad(1, 1, 1, 2), sqrt_of(3))),
                     ctx.identity()),
        "opaque": (ConjugateCone(opaque, g), g),
    }[which]


def _deciding_basepoint(c, w):
    """Index of the first basepoint the composed lift of w moves on the cover."""
    s = c.simplified()
    el = s._lift(w)
    return next(i for i, (t, n) in enumerate(s._memo["base"])
                if mobius_cover(el.mat, t, n + el.delta) != (t, n))


@pytest.mark.parametrize("which", ["default", "conjugate", "wrapper", "ab-winds",
                                   "opaque"])
def test_sign_rows_match_sign_of_product(which):
    # every entry of every row is sign_of_product of its three words, with
    # all rows taken before any is read.  a b^-1 a fixes (sqrt2, 0) on the
    # cover, so g a b^-1 a g^-1 is decided by the second basepoint.  a b
    # fixes 1 + sqrt2 on the line but winds it one sheet up, so on
    # "ab-winds" (a b)^2 is decided at the first basepoint, by its sheet.
    # "opaque" signs by the generic rows of a wrapper that stays one.
    c, g = _row_cone(which)
    ctx = c.ctx
    a, b = ctx.gens()
    ball = ctx.ball(4)
    rng = random.Random(7)
    middles = rng.sample(ball[1:], 40) + [ctx.inv(b), ctx.mul(b, a)]
    pairs = [(rng.choice(ball), rng.choice(ball)) for _ in range(40)]
    pairs += [(ctx.mul(g, a), ctx.mul(a, ctx.inv(g))), (a, b)]
    pairs = [(left, right) for left, right in pairs
             if not any(ctx.mul(ctx.mul(left, m), right).is_identity() for m in middles)]
    assert len(pairs) > 30
    rows = list(c.sign_rows(pairs, middles))
    assert len(rows) == len(pairs)
    deciders = set()
    for (left, right), row in zip(pairs, rows):
        assert list(row) == [c.sign_of_product((left, m, right)) for m in middles]
        if which != "opaque":
            deciders |= {_deciding_basepoint(c, ctx.mul(ctx.mul(left, m), right))
                         for m in middles}
    if which == "opaque":
        assert isinstance(c.simplified(), ConjugateCone)
    elif which == "ab-winds":
        x = c.basepoints[0]
        assert mobius_apply(c.images[0] @ c.images[1], x) == x
        assert c._points(c._lift(ctx.mul(a, b)))[0] == ((x.p, x.q, x.r, x.d), 1)
        assert deciders == {0}
    else:
        assert deciders == {0, 1}


def test_sign_rows_fall_back_when_every_basepoint_ties():
    # on one basepoint that a b^-1 a fixes on the cover, that entry raises
    # as sign_of_product does, after the entries before it
    c = dynamical_cone()
    one = DynamicalCone(c.ctx, c.images, (sqrt_of(2),))
    a, b = c.ctx.gens()
    (row,) = one.sign_rows([(a, a)], [a, b.inv()])
    assert next(row) == one.sign_of_product((a, a, a)) == 1
    with pytest.raises(InsufficientBasepointsError):
        next(row)
    with pytest.raises(InsufficientBasepointsError):
        one.sign_of_product((a, b.inv(), a))


def _rand_free(rng, n=5):
    return F2.word([(rng.randrange(2), rng.choice([-2, -1, 1, 2]))
                    for _ in range(rng.randint(0, n))])


# -- conjugate / restriction wrappers --------------------------------------------------

def test_restrict_lex_to_kernel_equals_kernel_cone():
    kc = slope_cone((1, 0), "++", SOL_SES.kernel)
    c = lex_cone(SOL_SES, kc, z_cone(ctx=SOL_SES.quotient))
    rc = restrict_cone(c, ses_kernel_embedding(SOL_SES))
    for w in SOL_SES.kernel.ball(4):
        if not w.is_identity():
            assert rc.sign(w) == kc.sign(w)
    assert rc.simplified() == kc


def test_restrict_dynamical_to_cyclic():
    c = dynamical_cone()
    a = c.ctx.gens()[0]
    rc = restrict_cone(c, cyclic_embedding(c.ctx, a))
    sub = rc.ctx
    for n in (-3, -1, 1, 2, 5):
        assert rc.sign(sub.from_vector((n,))) == (1 if n > 0 else -1)


def test_bad_embedding_rejected():
    from leftorder.cones import Embedding
    sub = ZPowCtx(1, ("u",))

    def not_hom(w):
        (k,) = sub.vector(w)
        return vec(k, k * k)  # quadratic, breaks multiplicativity

    with pytest.raises(InvalidEmbeddingError):
        restrict_cone(slope_cone((1, 0), "++"), Embedding(sub, Z2, not_hom))


# -- axiom checking ---------------------------------------------------------------------

def test_axioms_pass_slope_and_klein():
    for v in ("++", "+-", "-+", "--"):
        assert check_cone_axioms_on_ball(slope_cone((2, 3), v), 3).ok
    for c in klein_cones(KLEIN):
        assert check_cone_axioms_on_ball(c, 3).ok


def test_axioms_every_concrete_family_r5():
    sol_kernel = slope_cone((1, 0), "++", SOL_SES.kernel)
    lex_sol = lex_cone(SOL_SES, sol_kernel, z_cone(ctx=SOL_SES.quotient))
    cones = [
        slope_cone((1, -1), "+-"),
        slope_cone((3, 2), "--"),
        quad_slope_cone((rational(1), sqrt_of(2)), "+"),
        z_cone(),
        KleinCone(KLEIN, -1, 1),
        lex_sol,
        lex_cone(ZXF2_SES, z_cone(ctx=ZXF2_SES.kernel),
                 dynamical_cone(ZXF2_SES.quotient)),
        dynamical_cone(),
        restrict_cone(lex_sol, ses_kernel_embedding(SOL_SES)),
    ]
    for c in cones:
        rep = check_cone_axioms_on_ball(c, 5)
        assert rep.ok, (c, rep)


def test_axioms_catch_flipped_oracle():
    class Tampered(Cone):
        def __init__(self, base, bad):
            self.ctx = base.ctx
            self.base = base
            self.bad = bad

        def _sign(self, w):
            s = self.base.sign(w)
            return -s if w == self.bad else s

    bad = vec(1, 0)
    rep = check_cone_axioms_on_ball(Tampered(slope_cone((1, 0), "++"), bad), 2)
    assert not rep.ok
    assert rep.kind in ("antisymmetry", "closure")
    assert bad in rep.words


class _FlippedPair(Cone):
    """A cone with the signs of w and w^-1 both flipped: antisymmetric, not closed."""

    def __init__(self, base, w):
        self.ctx = base.ctx
        self.base = base
        self.flipped = {w, base.ctx.inv(w)}

    def _sign(self, w):
        s = self.base.sign(w)
        return -s if w in self.flipped else s


_WITNESS_FAMILIES = {   # a cone and a radius: the walk on F2, else the pair loop
    "f2-dynamical": (dynamical_cone, 4),
    "klein": (lambda: klein_cones()[1], 4),
    "z2-slope": (lambda: slope_cone((2, -3), "+-"), 4),
    "sol-lex": (lambda: lex_cone(SOL_SES, slope_cone((1, 0), "++", SOL_SES.kernel),
                                 z_cone(ctx=SOL_SES.quotient)), 3),
    "zxf2-lex": (lambda: lex_cone(ZXF2_SES, z_cone(ctx=ZXF2_SES.kernel),
                                  dynamical_cone(ZXF2_SES.quotient)), 2),
}


@pytest.mark.parametrize("family", list(_WITNESS_FAMILIES))
def test_axioms_closure_witness_is_first_positive_pair(family):
    make, r = _WITNESS_FAMILIES[family]
    base = make()
    ctx = base.ctx
    ball = [w for w in ctx.ball(r) if not w.is_identity()]
    in_ball = set(ball)
    short = [w for w in ball if w.length() <= 2]
    negative = 0
    for seed in range(24):
        c = base
        for w in random.Random(seed).sample(short, 1 + seed % 3):
            c = _FlippedPair(c, w)
        positives = [w for w in ball if c.sign(w) == 1]
        expected = next(((u, v, ctx.mul(u, v)) for u in positives for v in positives
                         if ctx.mul(u, v) in in_ball and c.sign(ctx.mul(u, v)) == -1),
                        None)   # two flips can undo each other
        rep = check_cone_axioms_on_ball(c, r)
        assert (rep.ok, rep.kind, rep.words) == (
            (True, None, ()) if expected is None else (False, "closure", expected))
        # a failing clause that is all negative is turned around
        signs = [c.sign(w) for w in ball]
        negative += any(signs[u] == signs[v] == -signs[p] == -1
                        for u, v, p in ctx.ball_products(r))
    assert negative
    assert check_cone_axioms_on_ball(base, r).ok


def test_axioms_free_closure_tries_only_in_ball_products(monkeypatch):
    # the pair loop made 728^2 = 529,984 products at r6
    calls = [0]
    product = FreeCtx._product

    def counted(self, a, b):
        calls[0] += 1
        return product(self, a, b)

    monkeypatch.setattr(FreeCtx, "_product", counted)
    assert check_cone_axioms_on_ball(dynamical_cone(), 6).ok
    assert calls[0] < 10_000


# -- slope detection -----------------------------------------------------------------------

def test_detect_slope_readback():
    res = detect_slope(slope_cone((2, 3), "+-"))
    assert res.exact and res.variant == "+-"
    assert res.slope.vec == (3, -2)  # canonical form of (-3, 2)


def test_detect_slope_restriction_of_sol_lex():
    kc = slope_cone((1, 0), "++", SOL_SES.kernel)
    c = lex_cone(SOL_SES, kc, z_cone(ctx=SOL_SES.quotient))
    rc = restrict_cone(c, ses_kernel_embedding(SOL_SES))
    res = detect_slope(rc)
    assert res.exact and res.slope.vec == (0, 1) and res.variant == "++"


def test_detect_slope_quad_sector():
    c = quad_slope_cone((rational(1), sqrt_of(2)), "+")
    res = detect_slope(c, r=5)
    assert res.exact and res.slope.direction is not None
    u, v = res.sector
    # boundary direction d = (-sqrt2, 1) lies strictly between u and v:
    # cross(u, d) = u_m + u_n sqrt2 > 0 and cross(d, v) = -(v_m + v_n sqrt2) > 0
    assert sign_int_surd(u[0], u[1], 2) > 0
    assert sign_int_surd(v[0], v[1], 2) < 0
    assert u[0] * v[1] - u[1] * v[0] > 0  # u angularly before v


def test_detect_slope_opaque_sector_honest():
    # an irrational cone seen as an opaque oracle: sector, not a guess
    base = quad_slope_cone((rational(1), sqrt_of(2)), "+")

    class Opaque(Cone):
        ctx = Z2

        def _sign(self, w):
            return base.sign(w)

    res = detect_slope(Opaque(), r=5)
    assert not res.exact and res.sector is not None


def test_detect_slope_rejects_non_z2():
    with pytest.raises(InvalidConeError):
        detect_slope(dynamical_cone(), r=3)


def test_slope_scan_refused_past_the_ball_cap(monkeypatch):
    # (2r + 1)^2 candidates: radius 273 is the largest under 300,000
    c = quad_slope_cone((rational(1), sqrt_of(2)), "+")
    for r in (274, 20000, 10 ** 18):
        t0 = time.monotonic()
        with pytest.raises(ResourceLimitError, match="slope scan"):
            detect_slope(c, r)
        assert time.monotonic() - t0 < 0.5  # refused before any candidate is built
    # the edge itself, under a cap of 25 = (2 * 2 + 1)^2, on an opaque oracle
    import leftorder.cones as cones
    monkeypatch.setattr(cones, "BALL_ELEMENT_CAP", 25)

    class Opaque(Cone):
        ctx = Z2

        def _sign(self, w):
            return c.sign(w)

    assert detect_slope(Opaque(), r=2).sector is not None
    with pytest.raises(ResourceLimitError):
        detect_slope(Opaque(), r=3)

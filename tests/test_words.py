import itertools
import math
import random

import pytest

from leftorder.errors import (
    BrokenSESError, ContextMismatchError, MalformedWordError,
    ResourceLimitError,
)
from leftorder.cones import dynamical_cone, slope_cone
from leftorder.surd import Mat2
from leftorder.words import (
    DirectProductCtx, FreeCtx, FreeProductCtx, KleinCtx, SemidirectCtx,
    Word, ZPowCtx, direct_product_ses, semidirect_ses, validate_ses,
)

F2 = FreeCtx(2)
Z2 = ZPowCtx(2)
KLEIN = KleinCtx()
SOL = SemidirectCtx(Mat2(2, 1, 1, 1))
ZXZ = FreeProductCtx((ZPowCtx(1, ("a",)), ZPowCtx(1, ("b",))))
ZXF2 = DirectProductCtx((ZPowCtx(1, ("z",)), FreeCtx(2)))
# a free product whose first factor is itself a free product with a Klein
# factor, and a direct product with a free-product factor
NESTED_FP = FreeProductCtx((FreeProductCtx((ZPowCtx(1, ("u",)), KleinCtx())),
                            FreeCtx(2, ("c", "d"))))
NESTED_DP = DirectProductCtx((ZXZ, ZPowCtx(1, ("z",))))


def rand_word(ctx, rng, max_syllables=6, max_exp=3):
    n = rng.randint(0, max_syllables)
    return ctx.word([(rng.randrange(len(ctx.gen_names)),
                      rng.choice([e for e in range(-max_exp, max_exp + 1) if e]))
                     for _ in range(n)])


# -- normal forms ------------------------------------------------------------

def test_free_reduction():
    w = F2.word([("a", 1), ("a", -1), ("b", 1)])
    assert w == F2.word([("b", 1)])


def test_klein_relation_xy():
    # x y = y^-1 x
    assert KLEIN.word([("x", 1), ("y", 1)]) == KLEIN.word([("y", -1), ("x", 1)])


def test_klein_conjugation_power():
    # x y^3 x^-1 = y^-3, the relation iterated three times
    w = KLEIN.word([("x", 1), ("y", 3), ("x", -1)])
    assert w == KLEIN.word([("y", -3)])


def test_normalize_idempotent_all_families():
    rng = random.Random(0)
    for ctx in (F2, Z2, KLEIN, SOL, ZXZ, ZXF2):
        for _ in range(200):
            w = rand_word(ctx, rng)
            assert ctx.normalize(w) == w


def test_normal_form_soundness():
    # normalize(uv) depends only on the normal forms of u and v
    rng = random.Random(1)
    for ctx in (F2, Z2, KLEIN, SOL, ZXZ, ZXF2):
        for _ in range(1000):
            u, v = rand_word(ctx, rng), rand_word(ctx, rng)
            uv = ctx.mul(u, v)
            assert uv == ctx.mul(ctx.normalize(u), ctx.normalize(v))


def test_unknown_generator_rejected():
    with pytest.raises(MalformedWordError):
        F2.word([("q", 1)])


def test_context_mismatch_rejected():
    with pytest.raises(ContextMismatchError):
        F2.mul(F2.word([("a", 1)]), Z2.word([("e1", 1)]))
    # free and direct products on the same factors are different groups
    factors = ZXZ.factors
    assert FreeProductCtx(factors) == ZXZ
    assert DirectProductCtx(factors) != ZXZ
    with pytest.raises(ContextMismatchError):
        ZXZ.mul(ZXZ.word([("a", 1)]),
                DirectProductCtx(factors).word([("a", 1)]))


# -- the product hook and the trust rule --------------------------------------

PRODUCT_FAMILIES = (F2, Z2, KLEIN, ZXZ, ZXF2, NESTED_FP, NESTED_DP, SOL)


def test_product_hook_matches_normalize():
    # _product on two normal forms is the normal form of their concatenation
    rng = random.Random(11)
    for ctx in PRODUCT_FAMILIES:
        for _ in range(300):
            u = rand_word(ctx, rng, max_syllables=8)
            y = rand_word(ctx, rng, max_syllables=8)
            v = rand_word(ctx, rng, max_syllables=8)
            pairs = [
                (u.syllables, v.syllables),
                (u.syllables, ctx.inv(u).syllables),          # cancels fully
                (ctx.mul(u, y).syllables,                     # cancels y, which
                 ctx.mul(ctx.inv(y), v).syllables),           # spans several runs
            ]
            for a, b in pairs:
                assert ctx._product(a, b) == ctx._normalize(a + b)


def test_free_product_junction_cancels_across_runs():
    a = ZXZ.word([("a", 1), ("b", 1), ("a", 2), ("b", 1)])
    b = ZXZ.word([("b", -1), ("a", -2), ("b", -1), ("a", 3)])
    assert ZXZ._product(a.syllables, b.syllables) == ((0, 4),)
    assert ZXZ._product(a.syllables, ZXZ.inv(a).syllables) == ()
    # the inner free product's runs cancel through the outer junction
    w = NESTED_FP.word([("u", 1), ("x", 1), ("c", 1), ("y", 2), ("u", -1)])
    assert NESTED_FP._product(w.syllables, NESTED_FP.inv(w).syllables) == ()
    assert NESTED_FP.mul(w, NESTED_FP.inv(w)).is_identity()


def test_external_bad_generator_still_rejected():
    for ctx in (F2, ZXZ, KLEIN, SOL):
        bad = Word(ctx, ((9, 1),))
        good = ctx.gens()[0]
        for op in (lambda: ctx.mul(bad, good), lambda: ctx.mul(good, bad),
                   lambda: ctx.inv(bad), lambda: ctx.normalize(bad)):
            with pytest.raises(MalformedWordError):
                op()
    for cone in (dynamical_cone(), slope_cone((1, 2), "++")):
        with pytest.raises(MalformedWordError):
            cone.sign(Word(cone.ctx, ((9, 1),)))


def test_word_of_another_context_still_rejected():
    a = F2.word([("a", 1)])  # built, and trusted, by F2
    for op in (lambda: Z2.mul(Z2.gens()[0], a), lambda: Z2.inv(a),
               lambda: Z2.normalize(a), lambda: ZXZ.embed_factor(0, a)):
        with pytest.raises(ContextMismatchError):
            op()
    with pytest.raises(ContextMismatchError):
        slope_cone((1, 2), "++").sign(a)
    # an equal context built separately still accepts the word
    other = FreeCtx(2)
    assert other.mul(a, other.word([("b", 1)])) == F2.word([("a", 1), ("b", 1)])


def test_unreduced_external_word_acts_as_its_normal_form():
    raw = Word(F2, ((0, 1), (0, -1), (1, 2)))
    nf = F2.word([("b", 2)])
    a = F2.word([("a", 1)])
    assert F2.normalize(raw).syllables == nf.syllables
    assert F2.mul(raw, a).syllables == F2.mul(nf, a).syllables
    assert F2.mul(a, raw).syllables == F2.mul(a, nf).syllables
    assert F2.inv(raw).syllables == F2.inv(nf).syllables
    cone = dynamical_cone(F2)
    assert cone.sign(raw) == cone.sign(nf)


def test_pow_by_squaring_matches_repeated_mul():
    rng = random.Random(12)
    for ctx in PRODUCT_FAMILIES:
        for _ in range(20):
            w = rand_word(ctx, rng)
            for k in range(-9, 10):
                base = w if k >= 0 else ctx.inv(w)
                expect = ctx.identity()
                for _ in range(abs(k)):
                    expect = ctx.mul(expect, base)
                assert w ** k == expect


def _sol_by_letters(syllables):
    """(v1, v2, k) by multiplying one letter at a time: (v, k)(v', k') = (v + A^k v', k + k')."""
    a, a_inv = SOL.matrix, SOL.matrix.inverse()
    v1 = v2 = k = 0
    m = Mat2(1, 0, 0, 1)  # A^k
    for g, e in syllables:
        step = 1 if e > 0 else -1
        for _ in range(abs(e)):
            if g == SOL.T:
                k += step
                m = m @ (a if step > 0 else a_inv)
            else:
                dv = m.apply_vec((step, 0) if g == SOL.A1 else (0, step))
                v1, v2 = v1 + dv[0], v2 + dv[1]
    return v1, v2, k


def test_semidirect_state_matches_letter_products():
    rng = random.Random(13)
    for _ in range(300):  # small exponents
        syls = tuple((rng.randrange(3), rng.choice([-3, -2, -1, 1, 2, 3]))
                     for _ in range(rng.randint(0, 8)))
        assert SOL.state(syls) == _sol_by_letters(syls)
    # 20 syllables around t^800: lattice letters between large t powers
    syls = []
    for i in range(10):
        syls += [(SOL.T, 800 if i % 2 == 0 else -799), (i % 2, rng.randint(1, 5))]
    assert SOL.state(tuple(syls)) == _sol_by_letters(syls)
    assert SOL.word(syls).syllables == SOL._normalize(tuple(syls))


# -- multiplication, inversion, conjugation -----------------------------------

def test_free_mul_example():
    ab = F2.word([("a", 1), ("b", 1)])
    Ba = F2.word([("b", -1), ("a", 1)])
    assert F2.mul(ab, Ba) == F2.word([("a", 2)])


def test_klein_conj_example():
    x, y = KLEIN.gens()
    assert KLEIN.conj(x, y) == KLEIN.word([("y", -1)])


def test_abelian_conj_trivial():
    rng = random.Random(2)
    for _ in range(50):
        g, w = rand_word(Z2, rng), rand_word(Z2, rng)
        assert Z2.conj(g, w) == w


def test_inverse_law():
    rng = random.Random(3)
    for ctx in (F2, KLEIN, SOL, ZXZ, ZXF2):
        for _ in range(200):
            w = rand_word(ctx, rng)
            assert ctx.mul(w, ctx.inv(w)).is_identity()
            assert ctx.mul(ctx.inv(w), w).is_identity()


def test_semidirect_associativity():
    rng = random.Random(4)
    for _ in range(300):
        u, v, w = (rand_word(SOL, rng) for _ in range(3))
        assert SOL.mul(SOL.mul(u, v), w) == SOL.mul(u, SOL.mul(v, w))


def test_semidirect_multiplication_rule():
    # (v1, k1)(v2, k2) = (v1 + A^k1 v2, k1 + k2)
    rng = random.Random(5)
    for _ in range(200):
        v1 = (rng.randint(-4, 4), rng.randint(-4, 4))
        v2 = (rng.randint(-4, 4), rng.randint(-4, 4))
        k1, k2 = rng.randint(-3, 3), rng.randint(-3, 3)
        u, v = SOL.from_parts(v1, k1), SOL.from_parts(v2, k2)
        av2 = SOL.matrix.power(k1).apply_vec(v2)
        expect = SOL.from_parts((v1[0] + av2[0], v1[1] + av2[1]), k1 + k2)
        assert SOL.mul(u, v) == expect


# -- balls --------------------------------------------------------------------

def test_ball_z2_radius1():
    vecs = {Z2.vector(w) for w in Z2.ball(1)}
    assert vecs == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}


def test_ball_free2_radius2_count():
    assert len(F2.ball(2)) == 17  # 1 + 4 + 12 freely reduced words


def test_ball_klein_radius2():
    # independent model: states (b, a) under the four letters
    def step(state, letter):
        b, a = state
        if letter == "x":
            return (b, a + 1)
        if letter == "X":
            return (b, a - 1)
        if letter == "y":
            return (b + (1 if a % 2 == 0 else -1), a)
        return (b - (1 if a % 2 == 0 else -1), a)

    seen = {(0, 0)}
    frontier = [(0, 0)]
    for _ in range(2):
        nxt = []
        for s in frontier:
            for letter in "xXyY":
                s2 = step(s, letter)
                if s2 not in seen:
                    seen.add(s2)
                    nxt.append(s2)
        frontier = nxt
    got = {KLEIN.yx_exponents(w) for w in KLEIN.ball(2)}
    assert got == seen
    assert len(KLEIN.ball(2)) == len(seen) == 13


def test_ball_nesting_and_inverses():
    for ctx, r in ((F2, 3), (KLEIN, 3), (SOL, 3), (Z2, 3)):
        small, big = set(ctx.ball(r)), set(ctx.ball(r + 1))
        assert small <= big
        assert all(ctx.inv(w) in small for w in small)


def test_ball_deterministic_order():
    assert Z2.ball(2) == Z2.ball(2)
    assert [w.pairs() for w in Z2.ball(1)] == [
        [], [["e1", 1]], [["e1", -1]], [["e2", 1]], [["e2", -1]]]


def test_ball_cap():
    with pytest.raises(ResourceLimitError):
        F2.ball(8, cap=1000)


def test_ball_cap_on_cache_hit():
    assert len(F2.ball(3)) == 53  # fills the cache for radius 3
    with pytest.raises(ResourceLimitError):
        F2.ball(3, cap=52)
    assert len(F2.ball(3, cap=53)) == 53


def test_ball_cache_hit_from_equal_context():
    F2.ball(3)  # fills the cache for radius 3
    other = FreeCtx(2)
    ball = other.ball(3)
    assert ball == F2.ball(3)
    assert all(w.ctx is other for w in ball)


def test_box_generators_ball():
    box1 = {Z2.vector(w) for w in Z2.ball(1, gens=tuple(Z2.box_generators()))}
    assert box1 == {(m, n) for m in (-1, 0, 1) for n in (-1, 0, 1)}


# -- abelianization -----------------------------------------------------------

def test_abelianize_free():
    img = F2.abelianize_word(F2.word([("a", 2), ("b", -1)]))
    assert img.free == (2, -1) and img.torsion == ()


def test_abelianize_klein():
    img = KLEIN.abelianize_word(KLEIN.word([("y", 3), ("x", 2)]))
    assert img.free == (2,)
    assert img.torsion == ((1, 2),)


def test_abelianize_z2_identity_map():
    img = Z2.abelianize_word(Z2.from_vector((3, -4)))
    assert img.free == (3, -4)


def test_abelianize_sol():
    # A - I = [[1,1],[1,0]] is unimodular, so H1 = Z on the t coordinate
    img = SOL.abelianize_word(SOL.from_parts((5, -2), 3))
    assert img.free == (3,) and img.torsion == ()


def test_abelianize_semidirect_degenerate_actions():
    # parabolic action: A - I kills only the first lattice coordinate
    heis = SemidirectCtx(Mat2(1, 1, 0, 1))
    img = heis.abelianize_word(heis.from_parts((5, 7), 3))
    assert img.free == (7, 3) and img.torsion == ()
    # doubled shear leaves a Z/2 behind
    wide = SemidirectCtx(Mat2(1, 2, 0, 1))
    img = wide.abelianize_word(wide.from_parts((5, 7), 3))
    assert img.free == (7, 3) and img.torsion == ((1, 2),)
    # hyperbolic with |det(A - I)| = 2: pure torsion kernel image
    tor = SemidirectCtx(Mat2(3, 2, 1, 1))
    assert tor.abelianize_word(tor.from_parts((1, 0), 0)).torsion == ((1, 2),)
    assert tor.abelianize_word(tor.from_parts((0, 1), 0)).torsion == ((0, 2),)


def test_abelianize_semidirect_brute_force():
    """H1 of Z^2 x|_A Z against (A - I)Z^2 for every unimodular A in [-6, 6]."""
    box = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]

    def is_zero(img):
        return not any(img.free) and not any(r for r, _ in img.torsion)

    count = 0
    for a, b, c, d in itertools.product(range(-6, 7), repeat=4):
        if a * d - b * c not in (1, -1):
            continue
        count += 1
        ctx = SemidirectCtx(Mat2(a, b, c, d))
        m = ((a - 1, b), (c, d - 1))
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]

        def image(v):
            return ctx.abelianize_word(ctx.from_parts(v, 0))

        e1, e2 = image((1, 0)), image((0, 1))
        for v in box:
            iv = image(v)
            for e, ie in (((1, 0), e1), ((0, 1), e2)):
                s = image((v[0] + e[0], v[1] + e[1]))
                assert s.free == tuple(x + y for x, y in zip(iv.free, ie.free))
                assert s.torsion == tuple(
                    ((x + y) % n, n)
                    for (x, n), (y, _) in zip(iv.torsion, ie.torsion))
        for col in ((m[0][0], m[1][0]), (m[0][1], m[1][1])):
            assert is_zero(image(col)), (a, b, c, d, col)
        if det == 0:
            continue
        assert math.prod(n for _, n in e1.torsion) == abs(det), (a, b, c, d)
        for x, y in box:
            # v lies in (A - I)Z^2 iff adj(A - I) v is divisible by det
            in_lattice = ((m[1][1] * x - m[0][1] * y) % det == 0
                          and (m[0][0] * y - m[1][0] * x) % det == 0)
            assert is_zero(image((x, y))) == in_lattice, (a, b, c, d, x, y)
    assert count == 744


def test_abelianize_is_homomorphism():
    rng = random.Random(6)
    for ctx in (F2, KLEIN, SOL, ZXZ, SemidirectCtx(Mat2(3, 2, 1, 1))):
        for _ in range(200):
            u, v = rand_word(ctx, rng), rand_word(ctx, rng)
            iu, iv = ctx.abelianize_word(u), ctx.abelianize_word(v)
            iuv = ctx.abelianize_word(ctx.mul(u, v))
            assert iuv.free == tuple(x + y for x, y in zip(iu.free, iv.free))
            assert all(c == (x + y) % m
                       for (c, m), (x, _), (y, _) in
                       zip(iuv.torsion, iu.torsion, iv.torsion))


# -- Klein normal form uniqueness ---------------------------------------------

def test_klein_parameters_injective_on_ball():
    seen = {}
    for w in KLEIN.ball(4):
        key = KLEIN.yx_exponents(w)
        assert key not in seen or seen[key] == w
        seen[key] = w


# -- short exact sequences ------------------------------------------------------

def test_direct_product_ses():
    ses = direct_product_ses(ZXF2, kernel_factor=0)
    validate_ses(ses, r=3)
    g = ZXF2.word([("z", 3), ("a", 1), ("b", 1)])
    assert ses.project(g).pairs() == [["a", 1], ["b", 1]]
    assert ses.kernel_part(g).pairs() == [["z", 3]]


def test_semidirect_ses():
    ses = semidirect_ses(SOL)
    validate_ses(ses, r=3)
    g = SOL.from_parts((2, -1), 4)
    assert ses.kernel_part(g) == ses.kernel.from_vector((2, -1))
    assert ses.project(g) == ses.quotient.from_vector((4,))


def test_ses_exactness_on_ball():
    ses = semidirect_ses(SOL)
    for k in ses.kernel.ball(3):
        assert ses.project(ses.inject(k)).is_identity()


def test_kernel_pull_rejects_nonkernel():
    ses = semidirect_ses(SOL)
    with pytest.raises(BrokenSESError):
        ses.kernel_pull(SOL.from_parts((0, 0), 1))


def test_validate_ses_catches_broken_section():
    from dataclasses import replace
    good = semidirect_ses(SOL)
    bad = replace(good, section=lambda h: SOL.from_parts((1, 0), 0))
    with pytest.raises(BrokenSESError):
        validate_ses(bad, r=2)

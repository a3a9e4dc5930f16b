import gc
import itertools
import math
import random
import time
import weakref

import pytest

from leftorder.amalgam import AmalgamCtx
from leftorder.errors import (
    BrokenSESError, ContextMismatchError, MalformedWordError,
    ResourceLimitError,
)
from leftorder.cones import dynamical_cone, slope_cone
from leftorder.surd import POWER_BITS_CAP, Mat2
from leftorder.words import (
    DirectProductCtx, FreeCtx, FreeProductCtx, GroupCtx, KleinCtx,
    SemidirectCtx, Word, ZPowCtx, direct_product_ses, semidirect_ses,
    validate_ses,
)

F2 = FreeCtx(2)
Z2 = ZPowCtx(2)
KLEIN = KleinCtx()
SOL = SemidirectCtx(Mat2(2, 1, 1, 1))
ZXZ = FreeProductCtx((ZPowCtx(1, ("a",)), ZPowCtx(1, ("b",))))
ZXF2 = DirectProductCtx((ZPowCtx(1, ("z",)), FreeCtx(2)))
# a free product whose first factor is itself a free product with a Klein
# factor, a direct product with a free-product factor, and a free product
# of two non-free factors
NESTED_FP = FreeProductCtx((FreeProductCtx((ZPowCtx(1, ("u",)), KleinCtx())),
                            FreeCtx(2, ("c", "d"))))
NESTED_DP = DirectProductCtx((ZXZ, ZPowCtx(1, ("z",))))
KLEIN_SOL = FreeProductCtx((KleinCtx(), SemidirectCtx(Mat2(2, 1, 1, 1),
                                                      ("p", "q", "t"))))


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


def _reduce_by_letters(syllables):
    """Free reduction one letter at a time, then runs of equal letters merged."""
    letters = []
    for g, e in syllables:
        step = 1 if e > 0 else -1
        for _ in range(abs(e)):
            if letters and letters[-1] == (g, -step):
                letters.pop()
            else:
                letters.append((g, step))
    runs = []
    for g, step in letters:
        if runs and runs[-1][0] == g:
            runs[-1][1] += step
        else:
            runs.append([g, step])
    return tuple((g, e) for g, e in runs)


def _raw_syllables(ctx, rng, n):
    """n syllables with exponents in [-3, 3], zeros and repeats included."""
    return tuple((rng.randrange(len(ctx.gen_names)), rng.randint(-3, 3))
                 for _ in range(n))


def test_product_hook_matches_normalize():
    # on F2 and on Z*Z (which is F2 on a, b), the junction product and the
    # normal form both equal free reduction letter by letter
    rng = random.Random(11)
    for ctx in (F2, ZXZ):
        for _ in range(300):
            raw = _raw_syllables(ctx, rng, rng.randint(0, 16))
            assert ctx._normalize(raw) == _reduce_by_letters(raw)
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
                assert ctx._product(a, b) == _reduce_by_letters(a + b)
                assert ctx._normalize(a + b) == _reduce_by_letters(a + b)


def _assert_free_product_nf(ctx, syls):
    """Nonzero exponents, maximal runs each in its factor's normal form."""
    assert all(e for _, e in syls)
    runs = []
    for g, e in syls:
        i = ctx.factor_of(g)
        if runs and runs[-1][0] == i:
            runs[-1][1].append((g - ctx.offsets[i], e))
        else:
            runs.append((i, [(g - ctx.offsets[i], e)]))
    assert all(i != j for (i, _), (j, _) in zip(runs, runs[1:]))
    for i, run in runs:
        f = ctx.factors[i]
        if isinstance(f, FreeProductCtx):
            _assert_free_product_nf(f, tuple(run))
        elif isinstance(f, FreeCtx):
            assert tuple(run) == _reduce_by_letters(run)
        else:
            assert f._normalize(tuple(run)) == tuple(run)


def test_nested_free_product_normal_form_structure():
    # the halving normal form is a free-product normal form, and it equals
    # the product of the raw word's letters taken left to right
    rng = random.Random(14)
    for ctx in (NESTED_FP, KLEIN_SOL):
        for _ in range(300):
            raw = _raw_syllables(ctx, rng, rng.randint(0, 16))
            nf = ctx._normalize(raw)
            _assert_free_product_nf(ctx, nf)
            by_letters = ()
            for g, e in raw:
                for _ in range(abs(e)):
                    by_letters = ctx._product(by_letters,
                                              ((g, 1 if e > 0 else -1),))
            assert nf == by_letters


def test_single_syllable_is_its_own_normal_form():
    # the base case of the halving normal form: one nonzero syllable is
    # already normal, in every family, and a zero exponent is dropped
    for ctx in PRODUCT_FAMILIES + (KLEIN_SOL,):
        for g in range(len(ctx.gen_names)):
            assert ctx.word([(g, 0)]).syllables == ()
            for e in (1, -1, 2, -3, 7, 10**18):
                assert ctx.word([(g, e)]).syllables == ((g, e),)
                assert ctx._normalize(((g, e),)) == ((g, e),)
            letter = ctx.word([(g, 1)])
            assert (letter ** 5).syllables == ((g, 5),)
            assert (letter ** -4).syllables == ((g, -4),)


def _context_classes(cls=GroupCtx):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("leftorder."):
            yield sub
        yield from _context_classes(sub)


def test_each_family_states_one_group_law():
    concrete = {cls for cls in _context_classes()
                if not cls.__name__.startswith("_")}
    assert {FreeCtx, FreeProductCtx, ZPowCtx, KleinCtx, SemidirectCtx,
            DirectProductCtx} <= concrete
    for cls in concrete:
        own = [name for name in ("_normalize", "_product")
               if getattr(cls, name) is not getattr(GroupCtx, name)]
        assert len(own) == 1, (cls, own)


def _alternating(n):
    return [(i % 2, 1 + i % 3) for i in range(n)]


def _fully_cancelling(n):
    half = _alternating(n // 2)
    return half + [(g, -e) for g, e in reversed(half)]


def test_free_product_cancelling_mul_is_fast():
    # a run that cancels away costs only its own junction check
    w = ZXZ.word(_alternating(40_000))
    w_inv = ZXZ.inv(w)
    start = time.perf_counter()
    assert ZXZ.mul(w, w_inv).is_identity()
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("ctx", [F2, ZXZ], ids=["f2", "zz"])
@pytest.mark.parametrize("build", [_alternating, _fully_cancelling],
                         ids=["alternating", "cancelling"])
def test_long_raw_words_normalize_fast(ctx, build):
    syls = build(100_000)
    start = time.perf_counter()
    w = ctx.word(syls)
    assert time.perf_counter() - start < 2.0
    assert len(w.syllables) == (0 if build is _fully_cancelling else 100_000)


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


def test_factor_of_rejects_ids_out_of_range():
    assert [ZXZ.factor_of(g) for g in range(2)] == [0, 1]
    assert [NESTED_FP.factor_of(g) for g in range(5)] == [0, 0, 0, 1, 1]
    for g in (-1, 2, 5):
        with pytest.raises(MalformedWordError):
            ZXZ.factor_of(g)


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


def _sol_by_letters(syllables, ctx=SOL):
    """(v1, v2, k) by multiplying one letter at a time: (v, k)(v', k') = (v + A^k v', k + k')."""
    a, a_inv = ctx.matrix, ctx.matrix.inverse()
    v1 = v2 = k = 0
    m = Mat2(1, 0, 0, 1)  # A^k
    for g, e in syllables:
        step = 1 if e > 0 else -1
        for _ in range(abs(e)):
            if g == ctx.T:
                k += step
                m = m @ (a if step > 0 else a_inv)
            else:
                dv = m.apply_vec((step, 0) if g == ctx.A1 else (0, step))
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


def test_semidirect_power_cap_sees_the_exponent_reached():
    # A is conjugate to [[2, 1], [1, 1]] with row sums near n^2, so the power
    # cap is met at a cheap exponent; each t-step below stays under it
    n = 2 ** 50
    ctx = SemidirectCtx(Mat2(-n, n * n + 3 * n + 1, -1, n + 3))
    bits = (n * n + 4 * n + 4).bit_length()
    half = POWER_BITS_CAP // bits // 2 + 1
    step = (ctx.T, half), (ctx.A1, 1)
    ctx.word(step + ((ctx.T, -half), (ctx.A2, 1)) + step)
    with pytest.raises(ResourceLimitError):
        ctx.word(step + step)


# -- mul and inv against a reference normal form -------------------------------

def _zpow_reference(syllables):
    sums = {}
    for g, e in syllables:
        sums[g] = sums.get(g, 0) + e
    return tuple((g, sums[g]) for g in sorted(sums) if sums[g])


def _sol_reference(ctx):
    """The normal form a^v1 b^v2 t^k of ``_sol_by_letters``."""
    def nf(syllables):
        v1, v2, k = _sol_by_letters(syllables, ctx)
        return tuple(s for s in ((ctx.A1, v1), (ctx.A2, v2), (ctx.T, k)) if s[1])
    return nf


def _klein_reference(syllables):
    """y^b x^a, right-multiplying one letter at a time: x^a y = y^((-1)^a) x^a."""
    b = a = 0
    for g, e in syllables:
        step = 1 if e > 0 else -1
        for _ in range(abs(e)):
            if g == KleinCtx.X:
                a += step
            else:
                b += step if a % 2 == 0 else -step
    return tuple(s for s in ((KleinCtx.Y, b), (KleinCtx.X, a)) if s[1])


def _klein_free_z_reference(syllables):
    """Klein * Z: maximal factor runs, each in its factor's normal form, built
    one letter at a time; a run that vanishes lets its neighbours meet."""
    runs = []   # [factor, run syllables in the product's numbering]
    for g, e in syllables:
        f = 0 if g < 2 else 1
        for _ in range(abs(e)):
            letter = (g, 1 if e > 0 else -1)
            if runs and runs[-1][0] == f:
                run = runs[-1][1] + (letter,)
                run = _klein_reference(run) if f == 0 else _zpow_reference(run)
                if run:
                    runs[-1][1] = run
                else:
                    runs.pop()
            else:
                runs.append([f, (letter,)])
    return tuple(s for _, run in runs for s in run)


SOL_FLIP = SemidirectCtx(Mat2(1, 1, 1, 0))    # det -1: orientation-reversing
LAW_REFERENCES = [
    (ZPowCtx(1), _zpow_reference), (Z2, _zpow_reference),
    (ZPowCtx(3), _zpow_reference), (SOL, _sol_reference(SOL)),
    (SOL_FLIP, _sol_reference(SOL_FLIP)), (ZXZ, _reduce_by_letters),
    (FreeProductCtx((FreeCtx(2), ZPowCtx(1, ("z",)))), _reduce_by_letters),
    (FreeProductCtx((KleinCtx(), ZPowCtx(1, ("z",)))), _klein_free_z_reference),
]


@pytest.mark.parametrize("ctx,ref", LAW_REFERENCES, ids=[
    "z1", "z2", "z3", "sol", "sol-flip", "zz-free", "f2-free-z", "klein-free-z"])
def test_mul_and_inv_match_a_reference_normal_form(ctx, ref):
    # each law, closed form or derived, against the raw syllables concatenated
    rng = random.Random(len(ctx.gen_names) * 31 + len(repr(ctx)))
    for _ in range(200):
        raw_u = _raw_syllables(ctx, rng, rng.randint(0, 8))
        raw_v = _raw_syllables(ctx, rng, rng.randint(0, 8))
        u, v = ctx.word(raw_u), ctx.word(raw_v)
        assert u.syllables == ref(raw_u) and v.syllables == ref(raw_v)
        assert ctx.mul(u, v).syllables == ref(raw_u + raw_v)
        assert ctx.mul(u, ctx.mul(v, ctx.inv(v))) == u
        assert ctx.inv(u).syllables == ref(tuple((g, -e) for g, e in reversed(raw_u)))
        assert ctx.inv(u).nf and ctx.mul(u, v).nf


def test_sol_power_cap_meets_the_exponents_a_word_reaches():
    # a lattice letter after t^k needs A^k: the cap sees the running exponent,
    # never a difference of two of them
    t, a = SOL.word([("t", 10 ** 18)]), SOL.word([("a", 1)])
    with pytest.raises(ResourceLimitError):
        SOL.mul(t, a)
    assert SOL.mul(a, t).syllables == ((SOL.A1, 1), (SOL.T, 10 ** 18))
    n = 600_000
    ctx = SemidirectCtx(SOL.matrix)
    w = ctx.word([("t", n), ("b", 1), ("t", -2 * n), ("a", 1)])
    assert [g for g, _ in w.syllables] == [SOL.A1, SOL.A2, SOL.T]
    assert w.syllables[-1] == (SOL.T, -n)
    # the context keeps only small powers of A
    ctx.word([("t", 3), ("a", 1), ("t", -70), ("b", 1)])
    assert set(vars(ctx)["_powers"]) == {3}


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


def _spelled_out_key(w):
    """Shortlex key on the word written out one letter (g, e < 0) at a time."""
    letters = [(g, e < 0) for g, e in w.syllables for _ in range(abs(e))]
    return (len(letters), letters)


def test_shortlex_key_matches_spelled_out_letters():
    rng = random.Random(15)
    for ctx in PRODUCT_FAMILIES + (KLEIN_SOL,):
        words = [rand_word(ctx, rng, max_syllables=5) for _ in range(150)]
        words += ctx.ball(2)
        keys = [(w.shortlex_key(), _spelled_out_key(w)) for w in words]
        for ku, su in keys:
            for kv, sv in keys:
                assert (ku < kv) == (su < sv) and (ku == kv) == (su == sv)


def test_shortlex_key_size_is_linear_in_syllables():
    w = F2.word([("a", 10**18), ("b", -(10**18))])
    n, key = w.shortlex_key()
    assert n == 2 * 10**18 and len(key) == 2


def test_ball_cap(monkeypatch):
    monkeypatch.setattr("leftorder.words.BALL_ELEMENT_CAP", 1000)
    with pytest.raises(ResourceLimitError):
        F2.ball(8)


def test_ball_goes_with_its_context():
    ctx = FreeCtx(2)
    ref = weakref.ref(ctx.ball(3)[-1])
    del ctx
    gc.collect()
    assert ref() is None


def test_ball_cache_hit_from_equal_context():
    F2.ball(3)  # fills the cache for radius 3
    other = FreeCtx(2)
    ball = other.ball(3)
    assert ball == F2.ball(3)
    assert all(w.ctx is other for w in ball)


def test_box_generators_ball():
    box1 = {Z2.vector(w) for w in Z2.ball(1, gens=tuple(Z2.box_generators()))}
    assert box1 == {(m, n) for m in (-1, 0, 1) for n in (-1, 0, 1)}


# -- in-ball products -----------------------------------------------------------

def _pair_loop_products(ctx, r, gens=None):
    """Every (u, v, p) with ball[u] * ball[v] == ball[p], by trying all pairs."""
    ball = [w for w in ctx.ball(r, gens) if not w.is_identity()]
    pos = {w: i for i, w in enumerate(ball)}
    out = []
    for u in range(len(ball)):
        for v in range(len(ball)):
            p = pos.get(ctx.mul(ball[u], ball[v]))
            if p is not None:
                out.append((u, v, p))
    return out


BOX = tuple(Z2.box_generators())
F2_FREE_Z = FreeProductCtx((FreeCtx(2), ZPowCtx(1, ("z",))))
KLEIN_FREE_Z = FreeProductCtx((KleinCtx(), ZPowCtx(1, ("z",))))


@pytest.mark.parametrize("ctx,r,gens", [
    *[(FreeCtx(1), r, None) for r in range(6)],
    *[(F2, r, None) for r in range(6)],
    *[(FreeCtx(3), r, None) for r in range(4)],
    (ZPowCtx(1), 5, None), (Z2, 4, None), (Z2, 2, BOX), (KLEIN, 4, None),
    (SOL, 2, None), (ZXF2, 2, None), (ZXZ, 3, None),
    (ZXZ, 4, None), (ZXZ, 5, None), (F2_FREE_Z, 3, None), (KLEIN_FREE_Z, 3, None),
    (F2, 3, tuple(F2.ball_generators())), (AmalgamCtx((2, 2)), 4, None),
], ids=[*[f"f1-r{r}" for r in range(6)], *[f"f2-r{r}" for r in range(6)],
        *[f"f3-r{r}" for r in range(4)],
        "z-r5", "z2-r4", "z2-box-r2", "klein-r4", "sol-r2", "zxf2-r2", "zz-free-r3",
        "zz-free-r4", "zz-free-r5", "f2-free-z-r3", "klein-free-z-r3",
        "f2-r3-gens", "square-amalgam-r4"])
def test_ball_products_match_pair_loop(ctx, r, gens):
    # the list compares both the triple set and the ascending (u, v) order;
    # only the products headed by the least id of u, v, p and their inverses
    inv = ctx.ball_index(r, gens).inv
    least = [t for t in _pair_loop_products(ctx, r, gens)
             if t[0] == min(x for i in t for x in (i, inv[i]))]
    assert list(ctx.ball_products(r, gens)) == least


@pytest.mark.parametrize("ctx", [F2, Z2], ids=["f2", "z2"])
def test_ball_products_need_symmetric_generators(ctx):
    with pytest.raises(MalformedWordError, match="not closed under inverses"):
        list(ctx.ball_products(2, tuple(ctx.gens())))


def _orbit(ctx, u, v, p):
    """The six products of the orbit of abc = 1 through ``u v = p``."""
    words = []
    a, b, c = u, v, ctx.inv(p)
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        words += [(x, y, ctx.inv(z)), (ctx.inv(z), ctx.inv(y), x)]
    return frozenset(words)


def test_ball_products_free_count_r6():
    # one product per orbit of abc = 1, plus a second one for each orbit
    # with two equal elements; 109356 in-ball products fall into 18226 orbits
    for ctx in (F2, ZXZ):
        domain = ctx.ball_index(6).domain
        triples = list(ctx.ball_products(6))
        assert len(triples) == 18276
        orbits = {_orbit(ctx, *(domain[i] for i in t)) for t in triples}
        assert len(orbits) == 18226 == 109356 // 6
        assert len(frozenset().union(*orbits)) == 109356


def test_walk_runs_on_free_laws_only():
    # free groups, Z, and free products of such factors walk; the rest pair
    assert "ball_products" not in vars(FreeCtx)
    walks = [F2, FreeCtx(1), ZPowCtx(1), ZXZ, F2_FREE_Z,
             FreeProductCtx((ZXZ, FreeCtx(1, ("c",))))]
    pairs = [Z2, KLEIN, SOL, ZXF2, KLEIN_FREE_Z, AmalgamCtx((2, 2)),
             DirectProductCtx((ZPowCtx(1, ("a",)), ZPowCtx(1, ("b",))))]
    assert all(c._free_law for c in walks)
    assert not any(c._free_law for c in pairs)


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

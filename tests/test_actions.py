import random

import pytest

from leftorder.actions import (
    ConstantConeMap, cone_equal, conj_cone, diag_conj, equivariance_check,
    kernel_conj_cone, orbit, restricted_orbit_sample,
)
from leftorder.cones import (
    ConjugateCone, DynamicalCone, Embedding, KleinCone, QuadSlopeCone,
    RestrictionCone, cyclic_embedding, detect_slope, dynamical_cone, lex_cone,
    quad_slope_cone, restrict_cone, ses_kernel_embedding, slope_cone, z_cone,
)
from leftorder.conrad import conradian_check
from leftorder.errors import OrbitUndecidedError
from leftorder.serialize import cone_from_dict, cone_to_dict
from leftorder.surd import MAT_IDENTITY, Mat2, mat2, mobius_apply, rational, sqrt_of
from leftorder.words import (
    DirectProductCtx, FreeCtx, KleinCtx, SemidirectCtx, ZPowCtx, direct_product_ses,
    semidirect_ses,
)

KLEIN = KleinCtx()
Z2 = ZPowCtx(2)
SOL = SemidirectCtx(Mat2(2, 1, 1, 1))
SOL_SES = semidirect_ses(SOL)
ZXKLEIN = DirectProductCtx((ZPowCtx(1, ("z",)), KleinCtx()))
ZXKLEIN_SES = direct_product_ses(ZXKLEIN, kernel_factor=0)


def ball_equal(c1, c2, r):
    return cone_equal(c1, c2, "ball", r).verdict != "distinct"


def sol_lex(a=(1, 0), variant="++"):
    return lex_cone(SOL_SES, slope_cone(a, variant, SOL_SES.kernel),
                    z_cone(ctx=SOL_SES.quotient))


# -- conj_cone -----------------------------------------------------------------

def test_klein_conj_by_x_flips_ey():
    x, y = KLEIN.gens()
    c = KleinCone(KLEIN, 1, 1)
    assert conj_cone(c, x) == KleinCone(KLEIN, 1, -1)
    assert conj_cone(c, y) == c
    # descriptor rules agree with the defining unfolding on a ball
    for g in (x, y, KLEIN.word([("y", 2), ("x", 3)])):
        simplified = conj_cone(c, g)
        for w in KLEIN.ball(4):
            if w.is_identity():
                continue
            assert simplified.sign(w) == c.sign(KLEIN.conj(KLEIN.inv(g), w))


def test_conj_by_identity():
    c = slope_cone((2, 3), "+-")
    assert conj_cone(c, Z2.identity()) is c


def test_abelian_conj_trivial():
    c = slope_cone((2, 3), "-+")
    assert conj_cone(c, Z2.from_vector((5, -1))) is c


def test_conj_composition_convention():
    # conj(conj(c, g), h) = conj(c, h g), checked as oracles on a ball
    c = dynamical_cone()
    rng = random.Random(0)
    for _ in range(10):
        g = _rand(c.ctx, rng)
        h = _rand(c.ctx, rng)
        lhs = conj_cone(conj_cone(c, g), h)
        rhs = conj_cone(c, c.ctx.mul(h, g))
        for w in c.ctx.ball(3):
            if not w.is_identity():
                assert lhs.sign(w) == rhs.sign(w)


def _rand(ctx, rng, n=3):
    return ctx.word([(rng.randrange(len(ctx.gen_names)), rng.choice([-1, 1]))
                     for _ in range(rng.randint(0, n))])


def test_kernel_conj_sol_slope_closed_form():
    kc = slope_cone((1, 0), "++", SOL_SES.kernel)
    t = SOL.word([("t", 1)])
    moved = kernel_conj_cone(SOL_SES, kc, t)
    # closed form must agree with the defining automorphism transport on a ball
    kernel = SOL_SES.kernel
    for w in kernel.ball(4):
        if w.is_identity():
            continue
        inner = SOL.conj(SOL.inv(t), SOL_SES.inject(w))
        assert moved.sign(w) == kc.sign(SOL_SES.kernel_pull(inner))
    assert moved == slope_cone((1, -1), "++", kernel)


def test_kernel_conj_ignores_kernel_translation():
    kc = slope_cone((1, 0), "++", SOL_SES.kernel)
    g = SOL.from_parts((3, -2), 0)
    assert kernel_conj_cone(SOL_SES, kc, g) == kc


def test_kernel_conj_closed_form_random():
    rng = random.Random(3)
    for _ in range(40):
        a = (rng.randint(-3, 3), rng.randint(-3, 3))
        if a == (0, 0):
            continue
        kc = slope_cone(a, ("++", "+-", "-+", "--")[rng.randrange(4)],
                        SOL_SES.kernel)
        g = SOL.from_parts((rng.randint(-2, 2), rng.randint(-2, 2)),
                           rng.randint(-3, 3))
        moved = kernel_conj_cone(SOL_SES, kc, g)
        for w in SOL_SES.kernel.ball(3):
            if w.is_identity():
                continue
            inner = SOL.conj(SOL.inv(g), SOL_SES.inject(w))
            assert moved.sign(w) == kc.sign(SOL_SES.kernel_pull(inner))


def test_kernel_conj_orientation_reversing_action():
    # swap matrix has det -1: the on-line tie character flips under transport
    swap = SemidirectCtx(Mat2(0, 1, 1, 0))
    ses = semidirect_ses(swap)
    kc = slope_cone((1, 0), "++", ses.kernel)
    t = swap.word([("t", 1)])
    moved = kernel_conj_cone(ses, kc, t)
    assert moved == slope_cone((0, 1), "+-", ses.kernel)
    for w in ses.kernel.ball(4):
        if w.is_identity():
            continue
        inner = swap.conj(swap.inv(t), ses.inject(w))
        assert moved.sign(w) == kc.sign(ses.kernel_pull(inner))


def _sign_m_plus_n_sqrt2(m, n):
    """Sign of m + n sqrt(2), in integers."""
    if m >= 0 and n >= 0 or m <= 0 and n <= 0:
        return (m + n > 0) - (m + n < 0)
    return (m > 0) - (m < 0) if m * m > 2 * n * n else (n > 0) - (n < 0)


def test_kernel_conj_quad_slope_cone_acts_by_inverse_matrix():
    # an irrational kernel cone has no closed form: t^-1 (v, 0) t = (A^-1 v, 0),
    # so the transported cone signs v as the base cone signs A^-1 v
    base = quad_slope_cone((rational(1), sqrt_of(2)), "+", SOL_SES.kernel)
    moved = kernel_conj_cone(SOL_SES, base, SOL.word([("t", 1)]))
    assert isinstance(moved, QuadSlopeCone)
    # A = [[2, 1], [1, 1]], so A^-1 = [[1, -1], [-1, 2]]
    for v1 in range(-4, 5):
        for v2 in range(-4, 5):
            if (v1, v2) == (0, 0):
                continue
            w = SOL_SES.kernel.from_vector((v1, v2))
            expect = _sign_m_plus_n_sqrt2(v1 - v2, -v1 + 2 * v2)
            assert moved.sign(w) == expect


def test_kernel_conj_opaque_kernel_cone_is_a_restriction():
    # a kernel cone with no descriptor moves along the automorphism
    # k -> pull(g^-1 i(k) g), as an opaque restriction
    kernel = SOL_SES.kernel
    swap = Embedding(kernel, kernel, lambda w: kernel.from_vector(kernel.vector(w)[::-1]))
    kc = RestrictionCone(slope_cone((1, 0), "++", kernel), swap)
    t = SOL.word([("t", 1)])
    moved = kernel_conj_cone(SOL_SES, kc, t)
    assert isinstance(moved, RestrictionCone) and moved.base is kc
    assert kernel_conj_cone(SOL_SES, kc, SOL.from_parts((3, -2), 0)) is kc
    for w in kernel.ball(4)[1:]:
        inner = SOL.conj(SOL.inv(t), SOL_SES.inject(w))
        assert moved.sign(w) == kc.sign(SOL_SES.kernel_pull(inner))
    # the embedding's tag tells conjugators apart, so the records differ
    assert moved != kernel_conj_cone(SOL_SES, kc, SOL.word([("t", 2)]))
    assert cone_to_dict(moved, False)["embedding"] == {"type": "opaque"}


# -- cone equality ---------------------------------------------------------------

def test_cone_equal_exact():
    assert cone_equal(slope_cone((1, 0), "++"), slope_cone((1, 0), "++")).verdict == "equal"
    res = cone_equal(KleinCone(KLEIN, 1, 1), KleinCone(KLEIN, 1, -1))
    assert res.verdict == "distinct"
    assert res.witness == KLEIN.word([("y", 1)])


def test_cone_equal_distinct_slopes_have_witness():
    res = cone_equal(slope_cone((5, 4), "++"), slope_cone((4, 3), "++"))
    assert res.verdict == "distinct" and res.witness is not None
    c1, c2 = slope_cone((5, 4), "++"), slope_cone((4, 3), "++")
    assert c1.sign(res.witness) != c2.sign(res.witness)


def test_cone_equal_no_distinct_without_a_witness():
    # equal irrational cones are equal records, so exact equality sees them
    root2 = sqrt_of(2)
    c = quad_slope_cone((rational(1), root2), "+")
    for other in (quad_slope_cone((rational(2), root2.scaled(2)), "+"),
                  quad_slope_cone((rational(-1), -root2), "-")):
        assert cone_equal(c, other, "exact").verdict == "equal"
    # sqrt 2 and sqrt 2 + 1/1000 sign every word of B_4 alike: no witness
    near = quad_slope_cone((rational(1), root2 + rational(1, 1000)), "+")
    res = cone_equal(c, near, "exact")
    assert (res.verdict, res.witness, res.radius) == ("unknown", None, 0)
    res = cone_equal(c, quad_slope_cone((rational(1), -root2), "+"), "exact")
    assert res.verdict == "distinct"
    assert c.sign(res.witness) != quad_slope_cone((rational(1), -root2), "+").sign(res.witness)


def test_read_conjugate_equals_conj_cone():
    # a ConjugateCone, as a `conjugate` descriptor reads, evaluates through conj_cone
    dyn = dynamical_cone()
    x, y = KLEIN.gens()
    a, b = dyn.ctx.gens()
    cases = [(KleinCone(KLEIN, 1, 1), g) for g in (x, y, KLEIN.word([("y", 2), ("x", 3)]))]
    cases += [(dyn, g) for g in (a, b ** -2, a * b ** -2)]
    cases += [(ConjugateCone(dyn, b), a), (sol_lex(), SOL.word([("t", 1), ("a", -2)]))]
    for base, g in cases:
        wrapped = ConjugateCone(base, g)
        assert wrapped.simplified() == conj_cone(base, g)
        assert wrapped.simplified() is wrapped.simplified()
        assert cone_equal(wrapped, conj_cone(base, g), "exact").verdict == "equal"
        back = cone_from_dict(cone_to_dict(wrapped))
        assert cone_equal(back, conj_cone(base, g), "exact").verdict == "equal"


def test_conjugates_of_an_opaque_base_fold_into_one_wrapper():
    # a base with no descriptor: conj_cone keeps a wrapper, nested wrappers fold
    # into one product, and signs unfold as base(g^-1 w g)
    c = dynamical_cone()
    ctx = c.ctx
    a, b = ctx.gens()
    opaque = RestrictionCone(c, Embedding(ctx, ctx, lambda w: ctx.conj(a * b, w)))
    g, h = a * b ** -1, b ** 2
    nested = ConjugateCone(ConjugateCone(opaque, g), h)
    flat = nested.simplified()
    assert isinstance(flat, ConjugateCone) and flat.base is opaque
    assert flat.by == ctx.mul(h, g)
    hg = ctx.mul(h, g)
    for w in ctx.ball(3)[1:]:
        expect = opaque.sign(ctx.conj(ctx.inv(hg), w))
        assert nested.sign(w) == flat.sign(w) == expect, w
    for u in ctx.ball(2)[1:]:
        for v in ctx.ball(2)[1:]:
            if not ctx.mul(u, v).is_identity():
                assert nested.sign_of_product([u, v]) == nested.sign(ctx.mul(u, v))


@pytest.mark.parametrize("base, by", [
    ({"kind": "klein", "ex": 1, "ey": -1}, [["x", 1], ["y", 1]]),
    ({"kind": "dynamical"}, [["a", 1], ["b", -1]]),
])
def test_conradian_of_a_read_conjugate_signs_through_its_descriptor(base, by):
    # a read `conjugate` is a wrapper whose products sign through conj_cone's descriptor
    read = cone_from_dict({"kind": "conjugate", "base": base, "by": by})
    assert isinstance(read, ConjugateCone)
    assert not isinstance(read.simplified(), ConjugateCone)
    want = conj_cone(read.base, read.by)
    assert (conradian_check(read, 3, collect_all=True)
            == conradian_check(want, 3, collect_all=True))


def test_restriction_simplifies_a_wrapped_base():
    dyn = dynamical_cone()
    a, b = dyn.ctx.gens()
    emb = cyclic_embedding(dyn.ctx, b * a)
    restricted = restrict_cone(ConjugateCone(dyn, a), emb)
    s = restricted.simplified()
    assert s == RestrictionCone(conj_cone(dyn, a), emb)
    assert s.base is restricted.base.simplified()
    for w in restricted.ctx.ball(4)[1:]:
        assert s.sign(w) == restricted.sign(w), w


def test_lex_cones_differing_only_in_the_quotient_are_distinct():
    # equal kernels: neither the kernel ball scan nor the slope candidates part
    # them, so the witness is a section word
    kernel = slope_cone((1, 0), "++", SOL_SES.kernel)
    up = lex_cone(SOL_SES, kernel, z_cone(ctx=SOL_SES.quotient))
    down = lex_cone(SOL_SES, kernel, z_cone(False, SOL_SES.quotient))
    res = cone_equal(up, down, "exact")
    assert res.verdict == "distinct"
    v, k = SOL.parts(res.witness)
    assert v == (0, 0) and k != 0
    assert up.sign(res.witness) != down.sign(res.witness)


def test_cone_equal_exact_on_equal_dynamical_descriptors():
    c = dynamical_cone()
    a = c.ctx.gens()[0]
    assert cone_equal(c, dynamical_cone(), "exact").verdict == "equal"
    back = conj_cone(conj_cone(c, a), c.ctx.inv(a))
    assert back == c
    assert cone_equal(back, c, "exact").verdict == "equal"
    # distinct basepoints may give the same order: no verdict
    res = cone_equal(c, conj_cone(c, a), "exact")
    assert (res.verdict, res.radius) == ("unknown", 0)


def test_cone_equal_exact_keeps_opaque_restrictions_unknown():
    # the two embeddings compare equal but map u differently
    c = dynamical_cone()
    a, b = c.ctx.gens()
    u = ZPowCtx(1, ("u",))
    to_a = RestrictionCone(c, Embedding(u, c.ctx, lambda w: a ** u.vector(w)[0]))
    to_b = RestrictionCone(c, Embedding(u, c.ctx, lambda w: b ** u.vector(w)[0]))
    assert to_a == to_b
    assert cone_equal(to_a, to_b, "exact").verdict == "unknown"


def test_cone_equal_ball_strategy_on_dynamical():
    c = dynamical_cone()
    a = c.ctx.gens()[0]
    res = cone_equal(c, conj_cone(c, a), "ball", 4)
    assert res.verdict in ("distinct", "unknown")
    if res.verdict == "distinct":
        assert c.sign(res.witness) != conj_cone(c, a).sign(res.witness)


def test_cone_equal_ball_unknown_when_oracles_agree():
    c = dynamical_cone()
    wrapped = conj_cone(conj_cone(c, c.ctx.gens()[0]), c.ctx.inv(c.ctx.gens()[0]))
    # wrapped is c conjugated by the identity-product; oracles agree everywhere
    res = cone_equal(c, wrapped, "ball", 3)
    assert res.verdict in ("equal", "unknown")


def test_dynamical_conjugate_moves_basepoints():
    # g . P is the dynamical cone read at the points g x_i; it signs every
    # word of B_4 as the wrapper does, and as P signs g^-1 w g
    c = dynamical_cone()
    ctx = c.ctx
    ball4 = ctx.ball(4)[1:]
    conjugators = ctx.ball(3)[1:]
    assert len(conjugators) == 52
    for g in conjugators:
        moved = conj_cone(c, g)
        assert isinstance(moved, DynamicalCone) and moved.images == c.images
        wrapped = ConjugateCone(c, g)
        g_inv = ctx.inv(g)
        for w in ball4:
            s = moved.sign(w)
            assert s == wrapped.sign(w) == c.sign(ctx.mul(ctx.mul(g_inv, w), g)), (g, w)
        assert conj_cone(moved, g_inv) == c


def test_dynamical_conjugate_basepoints_match_matrix_reference():
    # the reference moves each basepoint by the product of the generator
    # images' Mat2 powers, read projectively through mobius_apply
    rng = random.Random(11)
    hyperbolic = DynamicalCone(FreeCtx(2), (mat2([[2, 1], [1, 1]]), mat2([[1, 0], [2, 1]])),
                               (sqrt_of(2), sqrt_of(5)))
    for c, top in ((dynamical_cone(), 18), (hyperbolic, 4)):
        ctx = c.ctx
        conjugators = [ctx.word([("a", 10 ** top)]), ctx.word([("b", -10 ** top)])]
        for _ in range(30):
            pairs = [(rng.randrange(2), rng.choice((-1, 1)) * 10 ** rng.randint(0, top))
                     for _ in range(rng.randint(1, 4))]
            conjugators.append(ctx.word(pairs))
        for g in conjugators:
            m = MAT_IDENTITY
            for i, e in g.syllables:
                m = m @ c.images[i].power(e)
            moved = conj_cone(c, g)
            assert moved.images == c.images, g
            assert moved.basepoints == tuple(mobius_apply(m, x) for x in c.basepoints), g


def test_moved_basepoint_descriptor_round_trips():
    c = dynamical_cone()
    moved = conj_cone(c, c.ctx.word([("a", 1), ("b", -2)]))
    assert moved.basepoints != c.basepoints
    back = cone_from_dict(cone_to_dict(moved))
    assert isinstance(back, DynamicalCone) and back == moved
    for w in c.ctx.ball(3)[1:]:
        assert back.sign(w) == moved.sign(w)


# -- orbits ------------------------------------------------------------------------

def test_klein_orbit_structure():
    x, y = KLEIN.gens()
    rep = orbit(KleinCone(KLEIN, 1, 1), [x, y])
    assert rep.size == 2
    assert set(rep.representatives) == {KleinCone(KLEIN, 1, 1),
                                        KleinCone(KLEIN, 1, -1)}
    rep2 = orbit(KleinCone(KLEIN, -1, 1), [x, y])
    assert set(rep2.representatives) == {KleinCone(KLEIN, -1, 1),
                                         KleinCone(KLEIN, -1, -1)}


def test_abelian_orbit_singleton():
    rep = orbit(slope_cone((2, 3), "++"), [Z2.from_vector((1, 0))])
    assert rep.size == 1


def test_sol_orbit_exceeds_bound():
    t = SOL.word([("t", 1)])
    rep = orbit(sol_lex(), [t], max_size=6)
    assert rep.size == "exceeded-bound"
    assert len(rep.representatives) == 6
    slopes = {detect_slope(restrict_cone(c, ses_kernel_embedding(SOL_SES)).simplified()).slope.vec
              for c in rep.representatives}
    assert len(slopes) == 6


def test_orbit_undecided_raises():
    c = dynamical_cone()
    with pytest.raises(OrbitUndecidedError) as exc:
        orbit(c, [c.ctx.gens()[0]], strategy="exact")
    assert exc.value.partial is not None


# -- diagonal action and lex compatibility ---------------------------------------------

def test_lex_diag_compatibility_sampled():
    rng = random.Random(1)
    qc = z_cone(ctx=SOL_SES.quotient)
    for _ in range(25):
        a = (rng.randint(-3, 3), rng.randint(-3, 3))
        if a == (0, 0):
            continue
        kc = slope_cone(a, rng.choice(("++", "+-", "-+", "--")), SOL_SES.kernel)
        g = SOL.from_parts((rng.randint(-2, 2), rng.randint(-2, 2)),
                           rng.randint(-2, 2))
        via_pair = lex_cone(SOL_SES, *diag_conj((kc, qc), g, SOL_SES))
        via_cone = conj_cone(lex_cone(SOL_SES, kc, qc), g)
        assert ball_equal(via_pair, via_cone, 4)


def test_diag_conj_identity():
    kc = slope_cone((1, 0), "++", SOL_SES.kernel)
    qc = z_cone(ctx=SOL_SES.quotient)
    assert diag_conj((kc, qc), SOL.identity(), SOL_SES) == (kc, qc)


def test_diag_conj_central_kernel():
    # in a direct product the kernel factor is central: kernel cone unchanged
    ses = ZXKLEIN_SES
    kc = z_cone(ctx=ses.kernel)
    qc = KleinCone(ses.quotient, 1, 1)
    g = ZXKLEIN.word([("x", 1)])
    pk, ph = diag_conj((kc, qc), g, ses)
    assert pk == kc
    assert ph == KleinCone(ses.quotient, 1, -1)


# -- equivariance ------------------------------------------------------------------------

def test_constant_theta_passes_on_abelian_quotient():
    theta = ConstantConeMap(z_cone(ctx=SOL_SES.quotient))
    samples = [(SOL.word([("t", 1)]), slope_cone((1, 0), "++", SOL_SES.kernel)),
               (SOL.from_parts((1, 2), -1), slope_cone((1, 1), "+-", SOL_SES.kernel))]
    assert equivariance_check(theta, SOL_SES, samples, r=3).ok


def test_constant_theta_fails_when_not_fixed():
    ses = ZXKLEIN_SES
    theta = ConstantConeMap(KleinCone(ses.quotient, 1, 1))
    x_conj = ZXKLEIN.word([("x", 1)])
    samples = [(x_conj, z_cone(ctx=ses.kernel))]
    rep = equivariance_check(theta, ses, samples, r=3)
    assert not rep.ok
    assert rep.witness["conjugator"] == x_conj


def test_equivariance_reverse_direction():
    # theta: quotient cones -> kernel cones; the central kernel is untouched,
    # so a constant is equivariant even under a conjugator moving the quotient
    ses = ZXKLEIN_SES
    theta = ConstantConeMap(z_cone(ctx=ses.kernel))
    samples = [(ZXKLEIN.word([("x", 1)]), KleinCone(ses.quotient, 1, 1))]
    rep = equivariance_check(theta, ses, samples, r=3,
                             direction="quotient_to_kernel")
    assert rep.ok


def test_orbit_report_carries_separation_witnesses():
    x, y = KLEIN.gens()
    rep = orbit(KleinCone(KLEIN, 1, 1), [x, y])
    assert rep.witnesses
    for i, j, w in rep.witnesses:
        ci, cj = rep.representatives[i], rep.representatives[j]
        assert w is not None and ci.sign(w) != cj.sign(w)


# -- restricted orbit sampling --------------------------------------------------------------

def test_sol_restricted_sample_slopes():
    t = SOL.word([("t", 1)])
    samples = restricted_orbit_sample(sol_lex(), ses_kernel_embedding(SOL_SES),
                                      [t], k=5)
    assert len(samples) == 6  # identity conjugator plus t^1..t^5
    assert all(s.verified and s.detection.exact for s in samples)
    slopes = [s.detection.slope.vec for s in samples]
    assert len(set(slopes)) == 6
    assert slopes[0] == (0, 1)


def test_restricted_sample_centralizer_singleton():
    # conjugators inside the kernel centralize it, so one restriction remains
    g = SOL.from_parts((1, 0), 0)
    samples = restricted_orbit_sample(sol_lex(), ses_kernel_embedding(SOL_SES),
                                      [g], k=4)
    assert len(samples) == 1

import random

import pytest

from leftorder import freeprod
from leftorder.errors import MalformedWordError, NotInKernelError
from leftorder.freeprod import (
    basis_word, conj_basis, conj_decomposed, expand, exponent_sum, fp_project,
    kernel_decompose, normal_closure_criterion,
)
from leftorder.words import FreeCtx, FreeProductCtx, KleinCtx, Word, ZPowCtx

ZZ = FreeProductCtx((ZPowCtx(1, ("a",)), ZPowCtx(1, ("b",))))
G, H = ZZ.factors
# two products whose factors have normal forms of more than one syllable
FZ = FreeProductCtx((FreeCtx(2, ("a", "b")), ZPowCtx(1, ("t",))))
KF = FreeProductCtx((KleinCtx(), FreeCtx(2, ("a", "b"))))
A = lambda i: G.word([("a", i)])
B = lambda j: H.word([("b", j)])


def w(*pairs):
    return ZZ.word(list(pairs))


# -- projection -----------------------------------------------------------------

def test_project_commutator_is_kernel():
    assert fp_project(w(("a", 1), ("b", 1), ("a", -1), ("b", -1))) == \
        (G.identity(), H.identity())


def test_project_counts_exponents():
    g, h = fp_project(w(("a", 2), ("b", 1)))
    assert g == A(2) and h == B(1)


def test_project_product_of_commutators():
    u = w(("a", 1), ("b", 1), ("a", -1), ("b", -1),
          ("a", 2), ("b", 2), ("a", -2), ("b", -2))
    assert fp_project(u) == (G.identity(), H.identity())


def test_project_is_homomorphism():
    rng = random.Random(0)
    for _ in range(300):
        u = _rand(rng)
        v = _rand(rng)
        gu, hu = fp_project(u)
        gv, hv = fp_project(v)
        guv, huv = fp_project(ZZ.mul(u, v))
        assert guv == G.mul(gu, gv) and huv == H.mul(hu, hv)


def _rand(rng, n=6, e=4):
    return ZZ.word([(rng.randrange(2), rng.choice([k for k in range(-e, e + 1) if k]))
                    for _ in range(rng.randint(0, n))])


def _rand_kernel(rng, n=8, e=4):
    u = _rand(rng, n, e)
    g, h = fp_project(u)
    return ZZ.mul(ZZ.mul(u, ZZ.inv(ZZ.embed_factor(1, h))),
                  ZZ.inv(ZZ.embed_factor(0, g)))


# -- kernel decomposition ----------------------------------------------------------

def test_decompose_single_commutator():
    k = kernel_decompose(w(("a", 1), ("b", 1), ("a", -1), ("b", -1)))
    assert k.letters == ((A(1), B(1), 1),)


def test_decompose_b_conjugate():
    # b [a,b] b^-1 = x[a,b]^-1 x[a,b^2]
    word = w(("b", 1), ("a", 1), ("b", 1), ("a", -1), ("b", -2))
    k = kernel_decompose(word)
    assert k.letters == ((A(1), B(1), -1), (A(1), B(2), 1))


def test_decompose_a_conjugate():
    # a [a,b] a^-1 = x[a^2,b] x[a,b]^-1
    word = w(("a", 2), ("b", 1), ("a", -1), ("b", -1), ("a", -1))
    k = kernel_decompose(word)
    assert k.letters == ((A(2), B(1), 1), (A(1), B(1), -1))


def test_decompose_rejects_non_kernel():
    with pytest.raises(NotInKernelError):
        kernel_decompose(w(("a", 1)))


def test_round_trip_random_kernel_words():
    rng = random.Random(1)
    done = 0
    while done < 1000:
        word = _rand_kernel(rng, n=6, e=3)
        if word.length() > 12:
            continue
        k = kernel_decompose(word)
        assert expand(k) == word
        done += 1


# -- conjugation identities ----------------------------------------------------------

def _identity_holds(label, by):
    lhs = ZZ.mul(ZZ.mul(by, expand(basis_word(ZZ, [(label[0], label[1], 1)]))),
                 ZZ.inv(by))
    closed = conj_basis(ZZ, label, by)
    assert expand(closed) == lhs
    assert closed == kernel_decompose(lhs)  # closed form agrees with peeling


def test_b_conj_identity():
    _identity_holds((A(1), B(1)), w(("b", 1)))
    assert conj_basis(ZZ, (A(1), B(1)), w(("b", 1))).letters == \
        ((A(1), B(1), -1), (A(1), B(2), 1))


def test_a_conj_identity():
    _identity_holds((A(1), B(1)), w(("a", 1)))
    assert conj_basis(ZZ, (A(1), B(1)), w(("a", 1))).letters == \
        ((A(2), B(1), 1), (A(1), B(1), -1))


def test_ab_conj_four_term():
    label = (A(1), B(1))
    by = w(("a", 1), ("b", 1))
    _identity_holds(label, by)
    assert conj_basis(ZZ, label, by).letters == (
        (A(1), B(1), 1), (A(2), B(1), -1), (A(2), B(2), 1), (A(1), B(2), -1))


def test_conj_identities_random_labels():
    rng = random.Random(2)
    for _ in range(300):
        label = (A(rng.choice([i for i in range(-4, 5) if i])),
                 B(rng.choice([j for j in range(-4, 5) if j])))
        i, j = rng.randint(-4, 4), rng.randint(-4, 4)
        by = w(("a", i), ("b", j))
        _identity_holds(label, by)


def test_conj_degenerate_labels_drop():
    # ab x[g,h] b^-1 a^-1 with ag = 1 leaves only the two nondegenerate letters
    out = conj_basis(ZZ, (A(1), B(1)), w(("a", -1), ("b", 2)))
    assert out.letters == ((A(-1), B(2), 1), (A(-1), B(3), -1))


def test_conj_general_word_path():
    label = (A(1), B(1))
    by = w(("b", 1), ("a", 2))  # H-then-G shape forces the general path
    out = conj_basis(ZZ, label, by)
    lhs = ZZ.mul(ZZ.mul(by, expand(basis_word(ZZ, [(*label, 1)]))), ZZ.inv(by))
    assert expand(out) == lhs


# -- exponent sums and the closure criterion -------------------------------------------

def test_exponent_sums():
    k = basis_word(ZZ, [(A(1), B(1), -1), (A(1), B(2), 1)])
    assert exponent_sum(k, (A(1), B(1))) == -1
    assert exponent_sum(k, (A(1), B(2))) == 1
    assert exponent_sum(k, (A(2), B(1))) == 0


def test_closure_criterion_consistent_power():
    S = [(A(1), B(1)), (A(2), B(2))]
    k = basis_word(ZZ, [(A(1), B(1), 3)])
    assert normal_closure_criterion(k, S).consistent


def test_closure_criterion_flags_outside_generator():
    S = [(A(1), B(1)), (A(2), B(2))]
    k = basis_word(ZZ, [(A(3), B(1), 1)])
    res = normal_closure_criterion(k, S)
    assert not res.consistent and res.violating == (A(3), B(1))


def test_closure_criterion_case_engine_small():
    # conjugating the pair {x[s,t], x[s^2,t^2]} by any nontrivial s^i t^j
    # pushes some element outside the closure-consistency test
    S = [(A(1), B(1)), (A(2), B(2))]
    for i in range(-2, 3):
        for j in range(-2, 3):
            by = w(("a", i), ("b", j))
            outcomes = [normal_closure_criterion(conj_basis(ZZ, lab, by), S)
                        for lab in S]
            if (i, j) == (0, 0):
                assert all(o.consistent for o in outcomes)
            else:
                assert any(not o.consistent for o in outcomes), (i, j)


# -- closed-form peeling -------------------------------------------------------------

def _peel_letter_by_letter(word):
    """Reference decomposition: one peeling step per letter."""
    ctx = word.ctx
    gf, hf = ctx.factors
    g_acc, h_acc = gf.identity(), hf.identity()
    letters = []
    for gid, exp in ctx.normalize(word).syllables:
        i = ctx.factor_of(gid)
        z = ctx.factors[i].word([(gid - ctx.offsets[i], 1 if exp > 0 else -1)])
        for _ in range(abs(exp)):
            if i == 1:
                h_acc = hf.mul(h_acc, z)
            else:
                moved = gf.mul(g_acc, z)
                letters += [(g_acc, h_acc, 1), (moved, h_acc, -1)]
                g_acc = moved
    return basis_word(ctx, letters)


def _kernel_word(ctx, rng):
    """A random word times the inverses of its two projections."""
    n = len(ctx.gen_names)
    u = ctx.word([(rng.randrange(n), rng.choice((-3, -2, -1, 1, 2, 3)))
                  for _ in range(rng.randint(0, 7))])
    g, h = fp_project(u)
    return ctx.mul(ctx.mul(u, ctx.inv(ctx.embed_factor(1, h))),
                   ctx.inv(ctx.embed_factor(0, g)))


@pytest.mark.parametrize("ctx", [ZZ, FZ, KF])
def test_closed_form_peeling_matches_letter_by_letter(ctx):
    rng = random.Random(7)
    for _ in range(300):
        word = _kernel_word(ctx, rng)
        assert kernel_decompose(word) == _peel_letter_by_letter(word)


def test_huge_exponents_peel_in_one_step():
    n = 10 ** 18
    k = kernel_decompose(w(("a", n), ("b", 1), ("a", -n), ("b", -1)))
    assert k.letters == ((A(n), B(1), 1),)
    by = w(("a", n))
    assert conj_basis(ZZ, (A(1), B(1)), by) == kernel_decompose(
        ZZ.conj(by, expand(basis_word(ZZ, [(A(1), B(1), 1)]))))


# -- the closed forms stand apart from the peeling ----------------------------------

def _factor_word(rng, f):
    return f.word([(rng.randrange(len(f.gen_names)), rng.choice((-2, -1, 1, 2)))
                   for _ in range(rng.randint(0, 3))])


def _refuse(*args):
    raise AssertionError("a closed-form conjugate reached the peeling path")


@pytest.mark.parametrize("ctx,g,h,by,syllables", [
    (FZ, [("a", 1)], [("t", 2)], [("a", 1), ("b", 1)], ((0, 1), (1, 1))),
    (KF, [("y", -1), ("x", 1)], [("a", 1)], [("y", -1), ("x", 1), ("a", 1)],
     ((1, -1), (0, 1), (2, 1))),
])
def test_multi_syllable_factor_parts_take_the_closed_form(monkeypatch, ctx, g, h,
                                                          by, syllables):
    label, by = (ctx.factors[0].word(g), ctx.factors[1].word(h)), ctx.word(by)
    assert by.syllables == syllables  # the G part alone has two syllables
    general = conj_decomposed(ctx, label, by)
    monkeypatch.setattr(freeprod, "kernel_decompose", _refuse)
    monkeypatch.setattr(freeprod, "conj_decomposed", _refuse)
    assert conj_basis(ctx, label, by) == general


@pytest.mark.parametrize("ctx", [ZZ, FZ, KF])
def test_closed_forms_never_reach_the_peeling(monkeypatch, ctx):
    # verify-identities compares conj_basis with conj_decomposed, so every
    # shape 1, a, b, ab must be answered without kernel_decompose
    rng = random.Random(11)
    gf, hf = ctx.factors
    cases, longest = [], 0
    for _ in range(100):
        label = (_factor_word(rng, gf), _factor_word(rng, hf))
        a, b = _factor_word(rng, gf), _factor_word(rng, hf)
        longest = max(longest, len(a.syllables), len(b.syllables))
        a, b = ctx.embed_factor(0, a), ctx.embed_factor(1, b)
        for by in (ctx.identity(), a, b, ctx.mul(a, b)):
            lhs = ctx.conj(by, expand(basis_word(ctx, [(*label, 1)])))
            cases.append((label, by, lhs, conj_decomposed(ctx, label, by)))
    assert (longest > 1) == (ctx is not ZZ)  # rank-1 factors: one syllable each
    monkeypatch.setattr(freeprod, "kernel_decompose", _refuse)
    monkeypatch.setattr(freeprod, "conj_decomposed", _refuse)
    for label, by, lhs, general in cases:
        closed = conj_basis(ctx, label, by)
        assert closed == general and expand(closed) == lhs


# -- refusals -------------------------------------------------------------------------

@pytest.mark.parametrize("word,message", [
    (ZZ.word([("a", 2), ("b", 1)]), "a^2*b projects to (a^2, b)"),
    (Word(ZZ, ((0, 1), (0, 1), (1, 1), (0, -1))), "a*a*b*a^-1 projects to (a, b)"),
    (KF.word([("x", 1), ("y", 1), ("a", 1), ("y", -1)]),
     "y^-1*x*a*y^-1 projects to (x, a)"),
    (Word(KF, ((2, 1), (0, 1), (1, 2), (2, -1), (1, -1))),
     "a*x*y^2*a^-1*y^-1 projects to (y^-1*x, 1)"),
    (FZ.word([("a", 1), ("t", 2), ("b", -1)]), "a*t^2*b^-1 projects to (a*b^-1, t^2)"),
], ids=["zz", "zz-unreduced", "klein-f2", "klein-f2-unreduced", "f2-z"])
def test_non_kernel_word_refused_with_its_projection(word, message):
    with pytest.raises(NotInKernelError) as err:
        kernel_decompose(word)
    g, h = fp_project(word)
    assert str(err.value) == message == f"{word!r} projects to ({g!r}, {h!r})"


@pytest.mark.parametrize("ctx", [ZZ, FZ, KF])
def test_unreduced_hand_built_word_decomposes_as_its_normal_form(ctx):
    rng = random.Random(5)
    for _ in range(100):
        syls = list(_kernel_word(ctx, rng).syllables)
        gid, e = rng.randrange(len(ctx.gen_names)), rng.choice((-2, 1, 3))
        at = rng.randint(0, len(syls))
        syls[at:at] = [(gid, e), (gid, 0), (gid, -e)]
        raw = Word(ctx, tuple(syls))
        assert not raw.nf
        assert kernel_decompose(raw) == kernel_decompose(ctx.normalize(raw))


@pytest.mark.parametrize("gid", [2, -1])
def test_out_of_range_generator_refused(gid):
    with pytest.raises(MalformedWordError, match=f"generator id {gid} out of range"):
        kernel_decompose(Word(ZZ, ((0, 1), (gid, 1), (0, -1))))


@pytest.mark.parametrize("ctx", [ZZ, FZ, KF])
def test_expand_then_decompose_round_trips(ctx):
    rng = random.Random(13)
    gf, hf = ctx.factors
    for _ in range(200):
        k = basis_word(ctx, [(_factor_word(rng, gf), _factor_word(rng, hf),
                              rng.choice((-3, -2, -1, 1, 2, 3)))
                             for _ in range(rng.randint(0, 5))])
        assert kernel_decompose(expand(k)) == k

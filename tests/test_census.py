import hashlib
import itertools
import json
import random

import pytest

from leftorder.amalgam import AmalgamCtx
from leftorder.census import (
    BallCone, _Search, census_digest, enumerate_ball_cones,
    extendable_filter, restriction_ball_cone,
)
from leftorder.cones import klein_cones, slope_cone, z_cone
from leftorder.errors import MalformedWordError, ResourceLimitError
from leftorder.surd import Mat2
from leftorder.words import (
    DirectProductCtx, FreeCtx, FreeProductCtx, GroupCtx, KleinCtx,
    SemidirectCtx, ZPowCtx,
)

Z1 = ZPowCtx(1)
Z2 = ZPowCtx(2)
KLEIN = KleinCtx()
F2 = FreeCtx(2)
BOX = tuple(Z2.box_generators())
SOL = SemidirectCtx(Mat2(2, 1, 1, 1))
ZXF2 = DirectProductCtx((ZPowCtx(1, ("z",)), F2))
ZZ_FREE = FreeProductCtx((ZPowCtx(1, ("a",)), ZPowCtx(1, ("b",))))
KLEIN_FREE_Z = FreeProductCtx((KleinCtx(), ZPowCtx(1, ("z",))))


def test_z_three_ball_has_two_cones():
    cones = enumerate_ball_cones(Z1, 3)
    assert len(cones) == 2
    pos = z_cone(ctx=Z1)
    restr = restriction_ball_cone(pos.sign, Z1, 3)
    assert restr in cones


def test_klein_r2_contains_the_four_restrictions():
    cones = enumerate_ball_cones(KLEIN, 2)
    for kc in klein_cones(KLEIN):
        assert restriction_ball_cone(kc.sign, KLEIN, 2) in cones


@pytest.mark.parametrize("r,count", [(1, 4), (2, 16)])
def test_free_product_amalgam_census_is_f2_census(r, count):
    # Z * Z on a, b is F2: same ball in the same order, same assignments
    digest = census_digest(enumerate_ball_cones(AmalgamCtx((0, 0)), r))
    assert digest == census_digest(enumerate_ball_cones(F2, r))
    assert digest["count"] == count


def test_square_amalgam_census_r2_is_the_four_klein_orders():
    # a -> x, b -> xy carries <a, b | a^2 = b^2> onto the Klein bottle group,
    # since (xy)^2 = x^2; its B_2 already pins the four orders down
    sq = AmalgamCtx((2, 2))
    x, y = KLEIN.gens()
    image = {0: x, 1: KLEIN.mul(x, y)}

    def to_klein(w):
        out = KLEIN.identity()
        for g, e in w.syllables:
            out = KLEIN.mul(out, image[g] ** e)
        return out

    cones = enumerate_ball_cones(sq, 2)
    domain = cones[0].domain
    pulled = {tuple(kc.sign(to_klein(w)) for w in domain)
              for kc in klein_cones(KLEIN)}
    assert len(cones) == 4 and {c.signs for c in cones} == pulled


def test_klein_census_r4_extend_8():
    cones = enumerate_ball_cones(KLEIN, 4)
    survivors = extendable_filter(cones, 8)
    assert len(survivors) == 4
    expected = {restriction_ball_cone(kc.sign, KLEIN, 4)
                for kc in klein_cones(KLEIN)}
    assert set(survivors) == expected


def test_z2_r1_census():
    assert len(enumerate_ball_cones(Z2, 1)) == 4


def test_soundness_slope_restrictions_appear():
    cones = enumerate_ball_cones(Z2, 2)
    rng = random.Random(0)
    for _ in range(10):
        a = (rng.randint(-4, 4), rng.randint(-4, 4))
        if a == (0, 0):
            continue
        v = rng.choice(("++", "+-", "-+", "--"))
        c = slope_cone(a, v)
        assert restriction_ball_cone(c.sign, Z2, 2) in cones


def test_extendable_filter_identity_radius():
    cones = enumerate_ball_cones(Z2, 1)
    assert extendable_filter(cones, 1) == cones


def test_extendable_filter_monotone():
    cones = enumerate_ball_cones(Z2, 2)
    s4 = set(extendable_filter(cones, 4))
    s5 = set(extendable_filter(cones, 5))
    assert s5 <= s4


def test_enumeration_canonical_order_and_digest_stable():
    c1 = enumerate_ball_cones(KLEIN, 2)
    c2 = enumerate_ball_cones(KLEIN, 2)
    assert c1 == c2
    assert census_digest(c1) == census_digest(c2)
    keys = [tuple(0 if s == 1 else 1 for s in c.signs) for c in c1]
    assert keys == sorted(keys)


def test_box_generator_census():
    gens = tuple(Z2.box_generators())
    cones = enumerate_ball_cones(Z2, 1, gens=gens)
    # box-1 domain has 8 points; count pinned by the enumeration oracle itself
    assert all(len(c.domain) == 8 for c in cones)
    c = slope_cone((1, 1), "++")
    assert restriction_ball_cone(c.sign, Z2, 1, gens=gens) in cones


def test_domain_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_ball_cones(FreeCtx(2), 6, cap=100)


def test_extendable_filter_rejects_shrinking_target():
    with pytest.raises(ValueError):
        extendable_filter(enumerate_ball_cones(Z2, 2), 1)


def test_extendable_filter_target_cap():
    cones = enumerate_ball_cones(F2, 1)
    with pytest.raises(ResourceLimitError):
        extendable_filter(cones, 4, cap=100)   # B_4 of F2 has 160 non-identity


def test_non_symmetric_generators_rejected():
    a, b = F2.gens()
    with pytest.raises(MalformedWordError, match="not closed under inverses"):
        enumerate_ball_cones(FreeCtx(2), 2, gens=(a, b))


# -- the integer index against Word arithmetic --------------------------------

@pytest.mark.parametrize("ctx,gens", [
    (Z2, None), (Z2, BOX), (KLEIN, None), (F2, None),
    (SemidirectCtx(Mat2(2, 1, 1, 1)), None),
    (DirectProductCtx((ZPowCtx(1, ("z",)), FreeCtx(2))), None),
    (FreeProductCtx((ZPowCtx(1, ("a",)), ZPowCtx(1, ("b",)))), None),
    (AmalgamCtx((2, 2)), None),
], ids=["z2", "z2-box", "klein", "f2", "sol", "zxf2", "zz-free", "square-amalgam"])
def test_ball_index_matches_word_products(ctx, gens):
    index = ctx.ball_index(2, gens)
    domain = index.domain
    assert [ctx.identity(), *domain] == ctx.ball(2, gens)
    pos = {w: i for i, w in enumerate(domain)}
    assert [pos[ctx.inv(w)] for w in domain] == index.inv
    assert all(index.ids[w.syllables] == i for w, i in pos.items())
    products = {(pos[u], pos[v], pos[ctx.mul(u, v)])
                for u in domain for v in domain if ctx.mul(u, v) in pos}
    inv = index.inv

    def orbit(a, b, c):
        """The six products of the orbit of the clause abc = 1."""
        return frozenset(t for x, y, z in ((a, b, c), (b, c, a), (c, a, b))
                         for t in ((x, y, inv[z]), (inv[z], inv[y], x)))

    orbits = {orbit(u, v, inv[p]) for u, v, p in products}
    by_id = _Search(ctx, 2, gens).by_id
    for i, clauses in enumerate(by_id):
        assert by_id[inv[i]] is clauses
        assert len(clauses) == len(set(clauses))
        assert {orbit(*t) for t in clauses} == {
            o for o in orbits if any(i in t or inv[i] in t for t in o)}
    assert set().union(*(orbit(*t) for c in by_id for t in c)) == products


@pytest.mark.parametrize("make,r,box,calls", [
    (lambda: ZPowCtx(2), 4, False, 564), (KleinCtx, 5, False, 1158),
    (lambda: ZPowCtx(2), 3, True, 848), (lambda: FreeCtx(2), 4, False, 2),
], ids=["z2-r4", "klein-r5", "z2-box-r3", "f2-r4"])
def test_ball_index_normalize_calls(monkeypatch, make, r, box, calls):
    # a cold build of the search's ball and clauses costs no more normal
    # forms than the quarter pair loop: the ball, n inverses and one product
    # per pair (u, v) whose inverse pairs both start at u or later; a loop
    # over every pair u < w would cost 924, 1998 and 1376.  Under a free
    # law the ball, its inverses and the walk merge and negate normal forms,
    # so only the two generators are normalized
    ctx = make()
    gens = tuple(ctx.box_generators()) if box else None
    count = [0]
    normalize = type(ctx)._normalize

    def counted(self, syllables):
        count[0] += 1
        return normalize(self, syllables)

    monkeypatch.setattr(type(ctx), "_normalize", counted)
    _Search(ctx, r, gens)
    assert count[0] <= calls


# -- brute force over every sign vector ------------------------------------

def _brute_force_cones(ctx, r, gens=None):
    """Every antisymmetric, product-closed +-1 vector on B_r minus 1.

    itertools.product yields +1 before -1 position by position, which is the
    census's canonical order.
    """
    domain = tuple(w for w in ctx.ball(r, gens=gens) if not w.is_identity())
    pos = {w: i for i, w in enumerate(domain)}
    inv = [pos[ctx.inv(w)] for w in domain]
    prods = [(pos[u], pos[v], pos[ctx.mul(u, v)])
             for u in domain for v in domain if ctx.mul(u, v) in pos]
    cones = [
        signs for signs in itertools.product((1, -1), repeat=len(domain))
        if all(signs[j] == -s for s, j in zip(signs, inv))
        and not any(signs[u] == 1 and signs[v] == 1 and signs[p] == -1
                    for u, v, p in prods)]
    return domain, cones


@pytest.mark.parametrize("ctx,r,gens", [
    (Z1, 3, None), (Z2, 1, None), (Z2, 1, BOX), (KLEIN, 2, None), (F2, 1, None),
    (SOL, 1, None), (ZXF2, 1, None), (AmalgamCtx((2, 2)), 1, None),
    (KLEIN_FREE_Z, 1, None), (FreeCtx(3), 1, None), (ZPowCtx(3), 1, None),
], ids=["z-r3", "z2-r1", "z2-box-r1", "klein-r2", "f2-r1", "sol-r1", "zxf2-r1",
        "square-amalgam-r1", "klein-free-z-r1", "f3-r1", "z3-r1"])
def test_enumeration_matches_brute_force(ctx, r, gens):
    domain, brute = _brute_force_cones(ctx, r, gens)
    expected = [BallCone(ctx, r, domain, signs) for signs in brute]
    assert enumerate_ball_cones(ctx, r, gens=gens) == expected


@pytest.mark.parametrize("ctx,r,target", [
    (Z1, 2, 4), (Z2, 1, 2), (KLEIN, 1, 2),
], ids=["z-r2-4", "z2-r1-2", "klein-r1-2"])
def test_extendable_filter_matches_brute_force(ctx, r, target):
    # every +-1 vector, consistent or not, so that the filter must prune
    domain = tuple(w for w in ctx.ball(r) if not w.is_identity())
    candidates = [BallCone(ctx, r, domain, signs) for signs
                  in itertools.product((1, -1), repeat=len(domain))]
    big_domain, big = _brute_force_cones(ctx, target)
    where = [big_domain.index(w) for w in domain]
    restrictions = {tuple(signs[i] for i in where) for signs in big}
    expected = [c for c in candidates if c.signs in restrictions]
    assert 0 < len(expected) < len(candidates)
    assert extendable_filter(candidates, target) == expected


# -- digests pinned before the integer index replaced the Word search ---------

@pytest.mark.parametrize("ctx,r,target,gens,count,sha256", [
    (KLEIN, 4, 8, None, 4,
     "52a7ed0027be50cfd1109fa2e11a370851905ca06136b99516890a36f5431116"),
    (Z2, 2, 5, None, 8,
     "b5090bf8cbcf8b84d25af75430bf50790c749c060a75425e8faba12abc7add59"),
    (Z2, 2, 4, BOX, 16,
     "1d80a39835b086aab0c64b08d6d6779be83217bf031310995af7b402bb6cf649"),
    (F2, 1, 4, None, 4,
     "5752dbcf7e9e9be004a9dec0f22a8829fbbdaed4842439f0a04c9ecba7fad0d9"),
    (F2, 1, 6, None, 4,
     "5752dbcf7e9e9be004a9dec0f22a8829fbbdaed4842439f0a04c9ecba7fad0d9"),
], ids=["klein-r4-8", "z2-r2-5", "z2-box-r2-4", "f2-r1-4", "f2-r1-6"])
def test_survivor_digest_pinned(ctx, r, target, gens, count, sha256):
    survivors = extendable_filter(enumerate_ball_cones(ctx, r, gens=gens),
                                  target, gens=gens)
    assert census_digest(survivors) == {"count": count, "sha256": sha256}


@pytest.mark.parametrize("ctx,r,count,sha256", [
    (Z2, 8, 88,
     "dcc1a16a19aa690db84c5fc8c8d35796306a5cbd3083262c6d7e09ba6c2ecfa8"),
    (KLEIN, 10, 4,
     "b117072b41f18c5b0369b94a47020525898661b81a0cfc6ace153c7c227d57b1"),
    (SOL, 2, 56,
     "72ab071779a5f5bd7b44fad8552d21c7d5424f7f056778d11d9173b407bd11ee"),
], ids=["z2-r8", "klein-r10", "sol-r2"])
def test_enumeration_digest_pinned(ctx, r, count, sha256):
    assert census_digest(enumerate_ball_cones(ctx, r)) == {
        "count": count, "sha256": sha256}


# -- digests pinned before one clause per orbit replaced six closure triples ---

@pytest.mark.parametrize("ctx,r,target,cap,count,sha256", [
    (SOL, 2, 3, 2000, 48,
     "022e2490f0eb989830d5e11002c63b63ee208bd0d8b1e6a7f2bf55383105882a"),
    (ZXF2, 1, 3, 2000, 8,
     "0166f8b9522e8e11ae90143b6e66258e7ba9bc4a297fda2df46e4ea6eb41f5f7"),
    (AmalgamCtx((2, 2)), 2, 4, 2000, 4,
     "071cce60a4f51b9871a2d4b9fe69fc8a39c680c1966c2db5b8b6cd3a7e704fb9"),
    (ZZ_FREE, 2, 6, 2000, 16,
     "88d9881bb5f65d76a9e84468b7d8899ee579f48ab5fbdf90c6be2ef53d6cde5e"),
    (F2, 2, 7, 5000, 16,
     "88d9881bb5f65d76a9e84468b7d8899ee579f48ab5fbdf90c6be2ef53d6cde5e"),
], ids=["sol-r2-3", "zxf2-r1-3", "square-amalgam-r2-4", "zz-free-r2-6",
        "f2-r2-7"])
def test_survivor_digest_pinned_on_every_family(ctx, r, target, cap, count,
                                                sha256):
    survivors = extendable_filter(enumerate_ball_cones(ctx, r), target, cap=cap)
    assert census_digest(survivors) == {"count": count, "sha256": sha256}


class _ZxZ2(GroupCtx):
    """Z x Z/2 on z, t: the exponent sums, t's taken mod 2."""

    gen_names = ("z", "t")

    def _normalize(self, syllables):
        z = sum(e for g, e in syllables if g == 0)
        t = sum(e for g, e in syllables if g == 1) % 2
        return tuple((g, e) for g, e in ((0, z), (1, t)) if e)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_torsion_leaves_no_ball_cone(r):
    # t = t^-1 can take neither sign, so no ball that holds t has a cone,
    # and no assignment on B_r extends to B_(r+1)
    ctx = _ZxZ2()
    index = ctx.ball_index(r)
    t = index.ids[((1, 1),)]
    assert index.inv[t] == t
    assert enumerate_ball_cones(ctx, r) == []
    candidates = [BallCone(ctx, r, index.domain, signs) for signs
                  in itertools.product((1, -1), repeat=len(index.domain))]
    assert extendable_filter(candidates, r + 1) == []


def test_cones_of_one_search_share_serial_items():
    cones = enumerate_ball_cones(Z2, 3)
    first = cones[0].serial()
    for c in cones:
        serial = c.serial()
        assert serial == [[w.pairs(), s] for w, s in zip(c.domain, c.signs)]
        assert serial == BallCone(c.ctx, c.radius, c.domain, c.signs).serial()
        for x, y in zip(serial, first):
            assert (x is y) == (x[1] == y[1])


@pytest.mark.parametrize("cones", [
    enumerate_ball_cones(Z2, 3),
    extendable_filter(enumerate_ball_cones(KLEIN, 2), 4),
    [BallCone(c.ctx, c.radius, c.domain, c.signs)
     for c in enumerate_ball_cones(F2, 1)],
    [restriction_ball_cone(z_cone(ctx=Z1).sign, Z1, 0)],
    [],
], ids=["z2-r3", "klein-survivors", "unshared", "empty-domain", "none"])
def test_census_digest_hashes_the_compact_serials(cones):
    payload = json.dumps([c.serial() for c in cones], sort_keys=True,
                         separators=(",", ":"))
    assert census_digest(cones) == {
        "count": len(cones),
        "sha256": hashlib.sha256(payload.encode()).hexdigest()}


@pytest.mark.parametrize("ctx, r, gens", [
    (Z2, 8, None), (KLEIN, 10, None), (Z2, 3, BOX), (F2, 2, None),
    (FreeProductCtx((ZPowCtx(1, ("a",)), ZPowCtx(1, ("b",)))), 2, None),
], ids=["z2-r8", "klein-r10", "z2-box-r3", "f2-r2", "zz-free-r2"])
def test_enumeration_comes_out_in_canonical_order(ctx, r, gens):
    # the DFS decides the first unassigned element + first, so two cones agree
    # below the first decision that parts them and the + one is found first
    keys = [tuple(s != 1 for s in c.signs)
            for c in enumerate_ball_cones(ctx, r, gens=gens)]
    assert len(keys) > 1 and keys == sorted(set(keys))

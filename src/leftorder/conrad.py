"""Conradian certificates, convexity checks and order-homomorphism tests.

All checks are bounded scans over word balls: pass(r) means "no violation up
to radius r", never a proof for the whole group.  Witnesses carry the exact
words involved and re-verify against the cone that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .cones import Cone
from .errors import InvalidHomError
from .words import GroupCtx, Word, ZPowCtx


def cyclic_subgroup(ctx: GroupCtx, w: Word):
    """Membership predicate of <w>.

    Exact on Z^n (u's vector is a multiple of w's) and under a free law:
    w = p c p^-1 with c one syllable or cyclically reduced with its ends on
    different generators, so c^k spells c k times, and u is in <w> iff
    p^-1 u p is such a power.  Other families decide against the |k| <= 64
    powers, a bound above every desk-scale ball radius scanned here.
    """
    w = ctx.normalize(w)
    if isinstance(ctx, ZPowCtx):
        base = ctx.vector(w)
        i = next((i for i, x in enumerate(base) if x), None)

        def member(u: Word) -> bool:
            v = ctx.vector(ctx.normalize(u))
            k = 0 if i is None else v[i] // base[i]
            return v == tuple(k * x for x in base)
        return member
    if ctx._free_law:
        p, c = ctx.identity(), w.syllables
        while len(c) > 1 and c[0][0] == c[-1][0]:   # conjugate the last syllable round
            x = Word(ctx, c[-1:], True)
            p, c = ctx.mul(p, ctx.inv(x)), ctx.conj(x, Word(ctx, c, True)).syllables
        p_inv, c_inv = ctx.inv(p), tuple((g, -e) for g, e in reversed(c))

        def member(u: Word) -> bool:
            v = ctx.conj(p_inv, u).syllables
            if len(c) <= 1:
                return not v or (len(v) == len(c) == 1 and v[0][0] == c[0][0]
                                 and v[0][1] % c[0][1] == 0)
            j = len(v) // len(c)
            return v in (c * j, c_inv * j)
        return member
    powers, p, q = {ctx.identity()}, ctx.identity(), ctx.identity()
    for _ in range(64):
        p, q = ctx.mul(p, w), ctx.mul(q, ctx.inv(w))
        powers |= {p, q}
    return powers.__contains__


# -- Conradian check -------------------------------------------------------------

@dataclass(frozen=True)
class ConradianReport:
    passed: bool
    radius: int
    witnesses: tuple[tuple[Word, Word], ...] = ()

    def certify(self, c: Cone) -> bool:
        """A witness (g, h) re-verifies iff g, h > 1 but g^-1 h g^2 is negative."""
        for g, h in self.witnesses:
            ctx = c.ctx
            w = ctx.mul(ctx.mul(ctx.inv(g), h), ctx.mul(g, g))
            if not (c.sign(g) == 1 and c.sign(h) == 1 and c.sign(w) == -1):
                return False
        return bool(self.witnesses)


def conradian_check(c: Cone, r: int, collect_all: bool = False) -> ConradianReport:
    """Scan positive pairs (g, h) in B_r for sign(g^-1 h g^2) != +.

    Uses the exponent-2 form of the Conradian condition, which makes the
    ball check finite.  pass(r) is bounded evidence only.  The scan reads
    one lazy row of ``Cone.sign_rows`` per g, so a first witness stops it.
    """
    ctx = c.ctx
    positives = [w for w in ctx.ball_index(r).domain if c.sign(w) == 1]
    witnesses = []
    rows = c.sign_rows(((ctx.inv(g), ctx.mul(g, g)) for g in positives), positives)
    for g, row in zip(positives, rows):
        for h, s in zip(positives, row):
            # g^-1 h g^2 cannot be trivial here: that would force h = g^-1 < 1
            if s != 1:
                witnesses.append((g, h))
                if not collect_all:
                    return ConradianReport(False, r, tuple(witnesses))
    return ConradianReport(not witnesses, r, tuple(witnesses))


# -- convexity check ----------------------------------------------------------------

@dataclass(frozen=True)
class ConvexityReport:
    passed: bool
    radius: int
    witness: tuple[Word, Word, Word] | None = None  # (c1, f, c2)

    def certify(self, c: Cone, member) -> bool:
        if self.witness is None:
            return False
        c1, f, c2 = self.witness
        ctx = c.ctx
        return (member(c1) and member(c2) and not member(f)
                and c.sign(ctx.mul(ctx.inv(c1), f)) == 1
                and c.sign(ctx.mul(ctx.inv(f), c2)) == 1)


def convexity_check(c: Cone, member, r: int) -> ConvexityReport:
    """Find c1 < f < c2 with c1 and c2 members of the subgroup but f not.

    ``member`` is the subgroup's membership predicate, as ``cyclic_subgroup``
    returns it.  Scans shortlex triples (c1 outermost, then f, then c2) over
    B_r, so the returned witness is the canonical first one.  The c2 scan
    does not depend on c1: it runs once per outsider f, at the first c1
    below f, and a scan that finds no c2 marks f so that no later c1
    repeats it.
    """
    ctx = c.ctx
    ball = ctx.ball(r)
    members = [w for w in ball if member(w)]
    outsiders = [(w, ctx.inv(w)) for w in ball if not member(w)]
    topped = set()   # outsiders with no member c2 above them
    for c1 in members:
        c1_inv = ctx.inv(c1)
        for i, (f, f_inv) in enumerate(outsiders):
            # c1^-1 f and f^-1 c2 cannot be trivial: c1, c2 are members, f is not;
            # the sign comes first, so an error it raises surfaces as in a plain scan
            if c.sign(ctx.mul(c1_inv, f)) != 1 or i in topped:
                continue
            for c2 in members:
                if c.sign(ctx.mul(f_inv, c2)) == 1:
                    return ConvexityReport(False, r, (c1, f, c2))
            topped.add(i)
    return ConvexityReport(True, r)


# -- cofinality domination -------------------------------------------------------------

@dataclass(frozen=True)
class CofinalityReport:
    holds: bool
    bound: int
    failed_at: int | None = None


def cofinality_witness(c: Cone, u: Word, g: Word, bound: int) -> CofinalityReport:
    """Check u^n < g for every |n| <= bound; first failing exponent wins."""
    ctx = c.ctx
    for n in range(-bound, bound + 1):
        w = ctx.mul(ctx.inv(u ** n), g)
        if w.is_identity() or c.sign(w) != 1:
            return CofinalityReport(False, bound, failed_at=n)
    return CofinalityReport(True, bound)


# -- order homomorphism check ------------------------------------------------------------

@dataclass(frozen=True)
class OrderHomReport:
    passed: bool
    radius: int
    witness: tuple[Word, Word] | None = None


def order_hom_check(c: Cone, phi, r: int) -> OrderHomReport:
    """Check g < h implies phi(g) <= phi(h) on B_r for an integer-valued hom.

    phi is spot-checked for additivity on at most 4000 ball pairs first; a
    witness is a positive comparison the claimed order-preserving map reverses.
    """
    ctx = c.ctx
    ball = ctx.ball(r)
    pairs = [(u, v) for u in ball for v in ball]
    if len(pairs) > 4000:
        rng = Random(0)
        pairs = [pairs[rng.randrange(len(pairs))] for _ in range(4000)]
    for u, v in pairs:
        if phi(ctx.mul(u, v)) != phi(u) + phi(v):
            raise InvalidHomError(f"phi is not additive at {u!r}, {v!r}")
    values = {w: phi(w) for w in ball}
    for g in ball:
        for h in ball:
            d = ctx.mul(ctx.inv(g), h)
            if d.is_identity() or c.sign(d) != 1:
                continue
            if values[g] > values[h]:
                return OrderHomReport(False, r, (g, h))
    return OrderHomReport(True, r)

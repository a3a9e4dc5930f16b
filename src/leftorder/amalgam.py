"""Amalgam normal forms and malnormality search, oracle-driven.

Words use free-product syntax over two copies of Z; the side oracles say how
a factor element splits into a core part (the amalgamated subgroup) and a
canonical coset representative.  The shipped instances are the free product
(trivial core) and the a^2 = b^2 amalgam, whose core is central, so the
normal form is core power times an alternating product of representatives.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidOracleError, MalformedWordError
from .words import FreeProductCtx, Word, ZPowCtx


@dataclass(frozen=True)
class AmalgamOracles:
    """Coset data for C in each Z factor: C = weight * Z (weight 0 = trivial)."""

    ctx: FreeProductCtx
    weights: tuple[int, int]

    def decompose(self, side: int, p: int) -> tuple[int, int]:
        """p = weight * k + r with canonical representative exponent r."""
        w = self.weights[side]
        if w == 0:
            return 0, p
        r = p % w
        return (p - r) // w, r


def square_amalgam() -> AmalgamOracles:
    """Z *_C Z with C generated by a^2 = b^2 (the four-ordering group)."""
    ctx = FreeProductCtx((ZPowCtx(1, ("a",)), ZPowCtx(1, ("b",))))
    return AmalgamOracles(ctx, (2, 2))


def free_product_amalgam() -> AmalgamOracles:
    """Z * Z with trivial amalgamated subgroup."""
    ctx = FreeProductCtx((ZPowCtx(1, ("a",)), ZPowCtx(1, ("b",))))
    return AmalgamOracles(ctx, (0, 0))


@dataclass(frozen=True)
class AmalgamForm:
    """core^k times an alternating product of coset representatives."""

    oracles: AmalgamOracles
    core_exp: int
    letters: tuple[tuple[int, int], ...]  # (side, representative exponent)

    def factor_length(self) -> int:
        return len(self.letters)

    def in_factor(self, side: int) -> bool:
        m = len(self.letters)
        return m == 0 or (m == 1 and self.letters[0][0] == side)

    def is_identity(self) -> bool:
        return self.core_exp == 0 and not self.letters

    def to_word(self) -> Word:
        syls = []
        if self.core_exp:
            w0 = self.oracles.weights[0]
            if w0 == 0:
                raise InvalidOracleError("trivial core cannot carry a power")
            syls.append((0, w0 * self.core_exp))
        off = self.oracles.ctx.offsets
        syls.extend((off[side], e) for side, e in self.letters)
        return self.oracles.ctx.word(syls)


def amalgam_normal_form(w: Word, oracles: AmalgamOracles) -> AmalgamForm:
    """Push core parts left (the core is central) and merge adjacent letters."""
    ctx = oracles.ctx
    if w.ctx != ctx:
        raise MalformedWordError("word does not belong to the amalgam syntax")
    core = 0
    stack: list[tuple[int, int]] = []
    for gid, e in ctx.normalize(w).syllables:
        side = ctx.factor_of(gid)
        if stack and stack[-1][0] == side:
            e += stack.pop()[1]
        k, r = oracles.decompose(side, e)
        weight = oracles.weights[side]
        if (weight * k + r != e) if weight else (k != 0 or r != e):
            raise InvalidOracleError(
                f"side {side} decomposition of {e} returned ({k}, {r})")
        if weight and not 0 <= r < weight:
            raise InvalidOracleError(
                f"representative exponent {r} outside [0, {weight})")
        core += k
        if r:
            stack.append((side, r))
    return AmalgamForm(oracles, core, tuple(stack))


def _ball_forms(oracles: AmalgamOracles, r: int) -> list[AmalgamForm]:
    """The amalgam's B_r: the normal form maps the free product onto it, so
    the forms of the free product's B_r are exactly its elements."""
    forms = {amalgam_normal_form(w, oracles) for w in oracles.ctx.ball(r)}
    return sorted(forms, key=lambda f: f.to_word().shortlex_key())


@dataclass(frozen=True)
class MalnormalityReport:
    passed: bool
    radius: int
    factor: int
    witness: tuple[Word, Word] | None = None  # (subgroup element, conjugator)

    def certify(self, oracles: AmalgamOracles) -> bool:
        if self.witness is None:
            return False
        aa, ww = self.witness
        ctx = oracles.ctx
        side = self.factor
        fa = amalgam_normal_form(aa, oracles)
        fw = amalgam_normal_form(ww, oracles)
        conj = amalgam_normal_form(
            ctx.mul(ctx.mul(ctx.inv(ww), aa), ww), oracles)
        return (fa.in_factor(side) and not fa.is_identity()
                and not fw.in_factor(side) and conj.in_factor(side))


def malnormality_check(oracles: AmalgamOracles, factor_side: int,
                       r: int) -> MalnormalityReport:
    """Search B_r for a in the factor, w outside it, with w^-1 a w back inside."""
    ctx = oracles.ctx
    forms = _ball_forms(oracles, r)
    members = [f.to_word() for f in forms
               if f.in_factor(factor_side) and not f.is_identity()]
    outsiders = [(w, ctx.inv(w)) for w in
                 (f.to_word() for f in forms if not f.in_factor(factor_side))]
    for aa in members:
        for ww, ww_inv in outsiders:
            conj = amalgam_normal_form(ctx.mul(ctx.mul(ww_inv, aa), ww), oracles)
            if conj.in_factor(factor_side):
                return MalnormalityReport(False, r, factor_side, (aa, ww))
    return MalnormalityReport(True, r, factor_side)

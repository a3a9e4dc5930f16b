"""The amalgam <a, b | a^w0 = b^w1> as a word family, and malnormality search.

The core z = a^w0 = b^w1 is central, so an element is z^k times alternating
coset representatives a^r (0 <= r < w0) and b^r (0 <= r < w1); weights
(0, 0) give Z * Z.  ``AmalgamCtx`` spells z^k as a^(w0 k), merged into a
leading a-letter, so the generic word machinery runs on amalgams.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidOracleError
from .words import GroupCtx, Syllables, Word


@dataclass(frozen=True, repr=False)
class AmalgamCtx(GroupCtx):
    """Z *_C Z with C generated by a^w0 = b^w1; weights (0, 0) give Z * Z."""

    weights: tuple[int, int]
    gen_names: tuple[str, str] = ("a", "b")

    def __post_init__(self):
        w = self.weights
        if not (type(w) is tuple and len(w) == 2
                and all(type(x) is int and x >= 0 for x in w)
                and (w[0] == 0) == (w[1] == 0)):
            raise InvalidOracleError(
                f"amalgam weights {w!r} are neither two positive integers nor (0, 0)")

    def descriptor(self):
        return {"family": "amalgam", "weights": list(self.weights),
                "gens": list(self.gen_names)}

    def _normalize(self, syllables):
        core, letters = amalgam_normal_form(self, syllables)
        if not core:
            return letters
        # a nonzero core power outweighs a representative, so the merge is nonzero
        head = self.weights[0] * core
        if letters and letters[0][0] == 0:
            head, letters = head + letters[0][1], letters[1:]
        return ((0, head),) + letters


def amalgam_normal_form(ctx: AmalgamCtx,
                        syllables: Syllables) -> tuple[int, Syllables]:
    """(k, letters) with the syllables equal to z^k times the letters.

    Letters are (side, representative exponent) and alternate in side; the
    generator id is the side.  Core parts are pushed left (the core is
    central) and adjacent letters of one side merged.
    """
    weights = ctx.weights
    core = 0
    stack: list[tuple[int, int]] = []
    for side, e in syllables:
        if stack and stack[-1][0] == side:
            e += stack.pop()[1]
        if weights[side]:
            k, e = divmod(e, weights[side])
            core += k
        if e:
            stack.append((side, e))
    return core, tuple(stack)


def check_amalgam(ctx) -> AmalgamCtx:
    if not isinstance(ctx, AmalgamCtx):
        raise InvalidOracleError(f"{ctx!r} is not an amalgam")
    return ctx


def in_factor(w: Word, side: int) -> bool:
    """Whether w lies in the factor <a> (side 0) or <b> (side 1)."""
    _, letters = amalgam_normal_form(w.ctx, w.ctx.normalize(w).syllables)
    return not letters or (len(letters) == 1 and letters[0][0] == side)


@dataclass(frozen=True)
class MalnormalityReport:
    passed: bool
    radius: int
    factor: int
    witness: tuple[Word, Word] | None = None  # (subgroup element, conjugator)

    def certify(self, ctx: AmalgamCtx) -> bool:
        if self.witness is None:
            return False
        aa, ww = (ctx.normalize(x) for x in self.witness)
        side = self.factor
        conj = ctx.mul(ctx.mul(ctx.inv(ww), aa), ww)
        return (in_factor(aa, side) and not aa.is_identity()
                and not in_factor(ww, side) and in_factor(conj, side))


def malnormality_check(ctx: AmalgamCtx, factor_side: int,
                       r: int) -> MalnormalityReport:
    """Search B_r for a in the factor, w outside it, with w^-1 a w back inside."""
    ball = ctx.ball_index(r).domain
    members = [w for w in ball if in_factor(w, factor_side)]
    outsiders = [(w, ctx.inv(w)) for w in ball if not in_factor(w, factor_side)]
    for aa in members:
        for ww, ww_inv in outsiders:
            if in_factor(ctx.mul(ctx.mul(ww_inv, aa), ww), factor_side):
                return MalnormalityReport(False, r, factor_side, (aa, ww))
    return MalnormalityReport(True, r, factor_side)

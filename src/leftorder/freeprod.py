"""Kernel machinery for free products G * H.

The kernel of G * H -> G x H is free on the commutators [g, h] with g, h
nonidentity; elements are stored as reduced words in that basis with labels
kept in factor normal form.  Decomposition peels letters against the
Schreier transversal {g h}: H-letters never emit a basis letter, a G-letter
z at state (g, h) emits x[g,h] x[gz,h]^-1 with degenerate labels dropped.
Over a syllable z^e these telescope to x[g,h] x[g z^e,h]^-1, so each
syllable costs one step whatever the size of e.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedWordError, NotInKernelError
from .words import FreeProductCtx, Word

Letter = tuple[Word, Word, int]


def check_two_factor(ctx) -> FreeProductCtx:
    if not isinstance(ctx, FreeProductCtx) or len(ctx.factors) != 2:
        raise MalformedWordError("kernel machinery needs a two-factor free product")
    return ctx


def _reduce_letters(letters) -> tuple[Letter, ...]:
    out: list[list] = []
    for gl, hl, e in letters:
        if e == 0 or gl.is_identity() or hl.is_identity():
            continue  # x[1,h] = x[g,1] = identity
        if out and out[-1][0] == gl and out[-1][1] == hl:
            out[-1][2] += e
            if out[-1][2] == 0:
                out.pop()
        else:
            out.append([gl, hl, e])
    return tuple((g, h, e) for g, h, e in out)


@dataclass(frozen=True)
class KernelBasisWord:
    ctx: FreeProductCtx
    letters: tuple[Letter, ...]

    def serial(self) -> list:
        return [{"g": g.pairs(), "h": h.pairs(), "e": e}
                for g, h, e in self.letters]

    def __repr__(self) -> str:
        if not self.letters:
            return "1"
        return "*".join(f"x[{g!r},{h!r}]" + (f"^{e}" if e != 1 else "")
                        for g, h, e in self.letters)


def basis_word(ctx: FreeProductCtx, letters) -> KernelBasisWord:
    ctx = check_two_factor(ctx)
    normd = []
    for gl, hl, e in letters:
        normd.append((ctx.factors[0].normalize(gl), ctx.factors[1].normalize(hl), e))
    return KernelBasisWord(ctx, _reduce_letters(normd))


def fp_project(w: Word) -> tuple[Word, Word]:
    """Image of w under the two factor retractions; kernel iff both trivial."""
    ctx = check_two_factor(w.ctx)
    return ctx.factor_word(0, w), ctx.factor_word(1, w)


def kernel_decompose(w: Word) -> KernelBasisWord:
    """Express a kernel element in the commutator basis by left-to-right peeling,
    one syllable at a time."""
    ctx = check_two_factor(w.ctx)
    g_part, h_part = fp_project(w)
    if not (g_part.is_identity() and h_part.is_identity()):
        raise NotInKernelError(f"{w!r} projects to ({g_part!r}, {h_part!r})")
    gf, hf = ctx.factors
    g_acc, h_acc = gf.identity(), hf.identity()
    letters: list[Letter] = []
    for gid, exp in ctx.normalize(w).syllables:
        i = ctx.factor_of(gid)
        syllable = ctx.factors[i].word([(gid - ctx.offsets[i], exp)])
        if i == 1:
            h_acc = hf.mul(h_acc, syllable)
        else:
            moved = gf.mul(g_acc, syllable)
            letters.append((g_acc, h_acc, 1))
            letters.append((moved, h_acc, -1))
            g_acc = moved
    return KernelBasisWord(ctx, _reduce_letters(letters))


def expand(k: KernelBasisWord) -> Word:
    """Rewrite a basis word as a group word: x[g,h] = g h g^-1 h^-1."""
    ctx = k.ctx
    out = ctx.identity()
    for gl, hl, e in k.letters:
        g = ctx.embed_factor(0, gl)
        h = ctx.embed_factor(1, hl)
        comm = ctx.mul(ctx.mul(g, h), ctx.mul(ctx.inv(g), ctx.inv(h)))
        out = ctx.mul(out, comm ** e)
    return out


def conj_basis(ctx: FreeProductCtx, label: tuple[Word, Word],
               by: Word) -> KernelBasisWord:
    """Conjugate of the basis letter x[g,h] by a group element.

    Conjugators of the shapes a, b and a b (factor elements, in that order)
    use the closed-form rewriting; anything else expands and re-decomposes.
    Degenerate letters vanish under the x[1,.] = x[.,1] = 1 convention.
    """
    ctx = check_two_factor(ctx)
    gf, hf = ctx.factors
    g = gf.normalize(label[0])
    h = hf.normalize(label[1])
    if g.is_identity() or h.is_identity():
        return KernelBasisWord(ctx, ())
    by = ctx.normalize(by)
    runs = [ctx.factor_of(gid) for gid, _ in by.syllables]
    if not runs:
        return basis_word(ctx, [(g, h, 1)])
    if runs == [0]:
        a = ctx.factor_word(0, by)
        return basis_word(ctx, [(gf.mul(a, g), h, 1), (a, h, -1)])
    if runs == [1]:
        b = ctx.factor_word(1, by)
        return basis_word(ctx, [(g, b, -1), (g, hf.mul(b, h), 1)])
    if runs == [0, 1]:
        a = ctx.factor_word(0, by)
        b = ctx.factor_word(1, by)
        return basis_word(ctx, [(a, b, 1),
                                (gf.mul(a, g), b, -1),
                                (gf.mul(a, g), hf.mul(b, h), 1),
                                (a, hf.mul(b, h), -1)])
    return conj_decomposed(ctx, (g, h), by)


def conj_decomposed(ctx: FreeProductCtx, label: tuple[Word, Word],
                    by: Word) -> KernelBasisWord:
    """x[g,h] conjugated by ``by`` as a group word, decomposed again."""
    return kernel_decompose(ctx.conj(by, expand(basis_word(ctx, [(*label, 1)]))))


def exponent_sum(k: KernelBasisWord, label: tuple[Word, Word]) -> int:
    g = k.ctx.factors[0].normalize(label[0])
    h = k.ctx.factors[1].normalize(label[1])
    return sum(e for gl, hl, e in k.letters if gl == g and hl == h)


@dataclass(frozen=True)
class ClosureCheck:
    consistent: bool
    violating: tuple[Word, Word] | None = None


def normal_closure_criterion(k: KernelBasisWord, labels) -> ClosureCheck:
    """Zero-exponent-sum test for membership in the normal closure of the labels.

    Every element of the normal closure has zero exponent sum in each basis
    generator outside the label set; "consistent" is therefore a necessary
    condition only, never a membership certificate.
    """
    ctx = k.ctx
    allowed = {(ctx.factors[0].normalize(g), ctx.factors[1].normalize(h))
               for g, h in labels}
    sums: dict[tuple[Word, Word], int] = {}
    for gl, hl, e in k.letters:
        sums[(gl, hl)] = sums.get((gl, hl), 0) + e
    order = sorted(sums, key=lambda p: (p[0].shortlex_key(), p[1].shortlex_key()))
    for label in order:
        if label not in allowed and sums[label] != 0:
            return ClosureCheck(False, label)
    return ClosureCheck(True)

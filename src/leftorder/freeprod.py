"""Kernel machinery for free products G * H.

The kernel of G * H -> G x H is free on the commutators [g, h] with g, h
nonidentity; elements are stored as reduced words in that basis with labels
kept in factor normal form.  Decomposition peels letters against the
Schreier transversal {g h}: H-letters never emit a basis letter, a G-letter
z at state (g, h) emits x[g,h] x[gz,h]^-1 with degenerate labels dropped.
Over a factor run r these telescope to x[g,h] x[gr,h]^-1: one step per run
of the normal form.  The state is a pair of factor normal forms and ends as
the two projections, so the same pass refuses a word outside the kernel.
Labels stay syllable tuples; ``Word``s are built only for what is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedWordError, NotInKernelError
from .surd import repeated_squaring
from .words import FreeProductCtx, Syllables, Word

Letter = tuple[Word, Word, int]


def check_two_factor(ctx) -> FreeProductCtx:
    if not isinstance(ctx, FreeProductCtx) or len(ctx.factors) != 2:
        raise MalformedWordError("kernel machinery needs a two-factor free product")
    return ctx


def _runs(ctx: FreeProductCtx, syllables: Syllables) -> list[tuple[int, Syllables]]:
    """(factor, factor normal form) for each factor run of a normal form."""
    factor_of, offsets, out = ctx._factor, ctx.offsets, []
    for g, e in syllables:
        i = factor_of[g]
        run = out.pop()[1] if out and out[-1][0] == i else ()  # extend an open run
        out.append((i, run + ((g - offsets[i], e),)))
    return out


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


def _reduce_letters(ctx: FreeProductCtx, letters) -> KernelBasisWord:
    """The reduced basis word of letters labelled by factor normal forms."""
    out: list[list] = []
    for g, h, e in letters:
        if not (e and g and h):
            continue  # x[1,h] = x[g,1] = identity
        if out and out[-1][0] == g and out[-1][1] == h:
            out[-1][2] += e
            if out[-1][2] == 0:
                out.pop()
        else:
            out.append([g, h, e])
    gf, hf = ctx.factors
    return KernelBasisWord(ctx, tuple((Word(gf, g, True), Word(hf, h, True), e)
                                      for g, h, e in out))


def basis_word(ctx: FreeProductCtx, letters) -> KernelBasisWord:
    gf, hf = check_two_factor(ctx).factors
    return _reduce_letters(ctx, [(gf._nf(g), hf._nf(h), e) for g, h, e in letters])


def fp_project(w: Word) -> tuple[Word, Word]:
    """Image of w under the two factor retractions; kernel iff both trivial."""
    ctx = check_two_factor(w.ctx)
    return ctx.factor_word(0, w), ctx.factor_word(1, w)


def kernel_decompose(w: Word) -> KernelBasisWord:
    """Express a kernel element in the commutator basis by left-to-right peeling."""
    ctx = check_two_factor(w.ctx)
    gf, hf = ctx.factors
    g_acc = h_acc = ()
    letters = []
    for i, run in _runs(ctx, ctx._nf(w)):
        if i:
            h_acc = hf._product(h_acc, run)
        else:
            moved = gf._product(g_acc, run)
            letters += ((g_acc, h_acc, 1), (moved, h_acc, -1))
            g_acc = moved
    if g_acc or h_acc:  # the state after the last run is the projection
        g, h = Word(gf, g_acc, True), Word(hf, h_acc, True)
        raise NotInKernelError(f"{w!r} projects to ({g!r}, {h!r})")
    return _reduce_letters(ctx, letters)


def expand(k: KernelBasisWord) -> Word:
    """Rewrite a basis word as a group word: x[g,h] = g h g^-1 h^-1."""
    ctx, product, out = k.ctx, k.ctx._product, ()
    gf, hf = ctx.factors
    for gl, hl, e in k.letters:
        g, h = ctx._global(0, gf._nf(gl)), ctx._global(1, hf._nf(hl))
        if e < 0:  # x[g,h]^-1 = h g h^-1 g^-1
            g, h = h, g
        comm = product(product(g, h), product(ctx._inverse(g), ctx._inverse(h)))
        out = product(out, repeated_squaring(comm, abs(e), product, ()))
    return Word(ctx, out, True)


def conj_basis(ctx: FreeProductCtx, label: tuple[Word, Word],
               by: Word) -> KernelBasisWord:
    """Conjugate of the basis letter x[g,h] by a group element.

    Conjugators of the shapes 1, a, b and a b (a in G and b in H, in that
    order, each one factor run of any number of syllables) use the closed
    form; anything else expands and re-decomposes.
    Degenerate letters vanish under the x[1,.] = x[.,1] = 1 convention.
    """
    ctx = check_two_factor(ctx)
    gf, hf = ctx.factors
    g, h = gf._nf(label[0]), hf._nf(label[1])
    runs = _runs(ctx, ctx._nf(by))
    if [i for i, _ in runs] not in ([], [0], [1], [0, 1]):
        return conj_decomposed(ctx, label, by)
    # ab x[g,h] (ab)^-1 = x[a,b] x[ag,b]^-1 x[ag,bh] x[a,bh]^-1, a missing part
    # read as 1; for g = 1 or h = 1 the four letters cancel in pairs
    a, b = (dict(runs).get(i, ()) for i in (0, 1))
    ag, bh = gf._product(a, g), hf._product(b, h)
    return _reduce_letters(ctx, [(a, b, 1), (ag, b, -1), (ag, bh, 1), (a, bh, -1)])


def conj_decomposed(ctx: FreeProductCtx, label: tuple[Word, Word],
                    by: Word) -> KernelBasisWord:
    """x[g,h] conjugated by ``by`` as a group word, decomposed again."""
    x, c = expand(basis_word(ctx, [(*label, 1)])).syllables, ctx._nf(by)
    conjugate = ctx._product(ctx._product(c, x), ctx._inverse(c))
    return kernel_decompose(Word(ctx, conjugate, True))


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

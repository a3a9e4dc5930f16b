"""Positive cones as deterministic sign oracles.

A cone assigns every nonidentity normal form a sign in {+1, -1}; the
positive set is closed under multiplication and meets each {w, w^-1} pair
exactly once.  Concrete families: half-plane cones on Z^2 with rational or
quadratic-surd slopes, the four Klein-bottle cones, lexicographic cones on
group extensions, a dynamical cone on the free group built from an exact
Mobius action, plus conjugate and restriction wrappers, and ``conj_cone``,
the conjugation action that builds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cmp_to_key, reduce
from itertools import repeat
from math import gcd

from .errors import (
    InsufficientBasepointsError, InvalidConeError, InvalidEmbeddingError,
    InvalidSlopeError, NoSignError, ResourceLimitError, WrongConstructorError,
)
from .surd import (
    LIFT_BITS_CAP, MAT_IDENTITY, Mat2, QuadNum, cmp_triples, cover_image, mat2,
    mobius_cover, primitive_vec, quad, rational, repeated_squaring, sqrt_of,
)
from .words import (
    BALL_ELEMENT_CAP, DirectProductCtx, FreeCtx, GroupCtx, KleinCtx, SemidirectCtx,
    ShortExactSeq, Word, ZPowCtx,
)


def _sgn(x: int) -> int:
    return (x > 0) - (x < 0)


class Cone:
    """Base sign oracle; subclasses implement ``_sign`` on normalized words."""

    ctx: GroupCtx

    def sign(self, w: Word) -> int:
        w = self.ctx.normalize(w)
        if w.is_identity():
            raise NoSignError("the identity has no sign")
        return self._sign(w)

    def _sign(self, w: Word) -> int:
        raise NotImplementedError

    def sign_of_product(self, words) -> int:
        """Sign of the product of several words; subclasses may do better."""
        out = self.ctx.identity()
        for w in words:
            out = self.ctx.mul(out, w)
        return self.sign(out)

    def sign_rows(self, pairs, middles):
        """Lazy rows of signs: for each (left, right) in ``pairs``, an iterator
        over the signs of left m right, one per m in the sequence ``middles``."""
        return (map(self.sign_of_product, zip(repeat(left), middles, repeat(right)))
                for left, right in pairs)

    def simplified(self) -> "Cone":
        return self


# -- cones on Z^2 and Z --------------------------------------------------------

_VARIANTS = ("++", "+-", "-+", "--")


def _flip_variant(v: str) -> str:
    return "".join("+" if ch == "-" else "-" for ch in v)


@dataclass(frozen=True)
class SlopeCone(Cone):
    """Rational half-plane cone P_a^{variant} on Z^2.

    (m, n) is positive when a1 m + a2 n compares to 0 per the first variant
    character; on the boundary line, when (-a2, a1) = c (m, n) with the sign
    of c given by the second character.
    """

    ctx: ZPowCtx
    a: tuple[int, int]
    variant: str

    def _sign(self, w: Word) -> int:
        m, n = self.ctx.vector(w)
        a1, a2 = self.a
        t = a1 * m + a2 * n
        if t != 0:
            return 1 if (t > 0) == (self.variant[0] == "+") else -1
        c_sign = _sgn(-a2) * _sgn(m) if m != 0 else _sgn(a1) * _sgn(n)
        return 1 if (c_sign > 0) == (self.variant[1] == "+") else -1

    def slope(self) -> "Slope":
        return Slope(vec=primitive_vec((-self.a[1], self.a[0])))


def _lattice(ctx: GroupCtx | None, rank: int) -> ZPowCtx:
    """The lattice Z^rank a cone lives on: ``ctx`` when it is one, else an error."""
    ctx = ZPowCtx(rank) if ctx is None else ctx
    if not isinstance(ctx, ZPowCtx) or ctx.rank != rank:
        raise InvalidSlopeError(f"this cone lives on Z^{rank}, not on {ctx!r}")
    return ctx


def slope_cone(a, variant: str, ctx: ZPowCtx | None = None) -> SlopeCone:
    if variant not in _VARIANTS:
        raise InvalidSlopeError(f"variant must be one of {_VARIANTS}")
    if tuple(a) == (0, 0):
        raise InvalidSlopeError("zero vector has no associated cone")
    ctx = _lattice(ctx, 2)
    g = gcd(abs(a[0]), abs(a[1]))
    prim = (a[0] // g, a[1] // g)
    canon = primitive_vec(prim)
    if canon != prim:  # negated: P_a^{s1 s2} = P_{-a}^{flip both}
        variant = _flip_variant(variant)
    return SlopeCone(ctx, canon, variant)


@dataclass(frozen=True)
class QuadSlopeCone(Cone):
    """Irrational half-plane cone: positive iff a1 m + a2 n has the chosen sign."""

    ctx: ZPowCtx
    a: tuple[QuadNum, QuadNum]
    positive_side: int  # +1 or -1

    def _sign(self, w: Word) -> int:
        m, n = self.ctx.vector(w)
        v = self.a[0].scaled(m) + self.a[1].scaled(n)
        s = v.sign()
        if s == 0:
            raise InvalidConeError("irrational slope hit a lattice point")
        return s * self.positive_side

    def slope(self) -> "Slope":
        return Slope(direction=(-self.a[1], self.a[0]))


def quad_slope_cone(a, sign_char: str, ctx: ZPowCtx | None = None) -> QuadSlopeCone:
    if sign_char not in ("+", "-"):
        raise InvalidSlopeError("sign must be '+' or '-'")
    a1, a2 = a
    if a1.is_zero() and a2.is_zero():
        raise InvalidSlopeError("zero vector has no associated cone")
    if a1.is_zero() or a2.is_zero() or (a2 / a1).is_rational():
        raise WrongConstructorError(
            "rational slope: use slope_cone with its four variants")
    # one record per cone: the normal is stored as (1, a2/a1), and dividing
    # by a1 turns the positive side over when a1 < 0
    return QuadSlopeCone(_lattice(ctx, 2), (rational(1), a2 / a1),
                         a1.sign() if sign_char == "+" else -a1.sign())


@dataclass(frozen=True)
class ZSignCone(Cone):
    """One of the two cones of Z."""

    ctx: ZPowCtx
    positive_side: int

    def _sign(self, w: Word) -> int:
        (k,) = self.ctx.vector(w)
        return self.positive_side * _sgn(k)


def z_cone(positive: bool = True, ctx: ZPowCtx | None = None) -> ZSignCone:
    return ZSignCone(_lattice(ctx, 1), 1 if positive else -1)


# -- Klein bottle cones ---------------------------------------------------------

@dataclass(frozen=True)
class KleinCone(Cone):
    """Sign rule for y^b x^a: x-exponent decides unless it vanishes."""

    ctx: KleinCtx
    ex: int
    ey: int

    def __post_init__(self):
        if not (isinstance(self.ctx, KleinCtx) and type(self.ex) is type(self.ey) is int
                and self.ex in (1, -1) and self.ey in (1, -1)):
            raise InvalidConeError(
                "a Klein cone needs a Klein context and integer signs ex, ey of +1 or -1")

    def _sign(self, w: Word) -> int:
        b, a = self.ctx.yx_exponents(w)
        if a != 0:
            return self.ex * _sgn(a)
        return self.ey * _sgn(b)


def klein_cones(ctx: KleinCtx | None = None) -> list[KleinCone]:
    """All four cones of the Klein bottle group."""
    if ctx is None:
        ctx = KleinCtx()
    return [KleinCone(ctx, ex, ey) for ex in (1, -1) for ey in (1, -1)]


# -- lexicographic cones on extensions -------------------------------------------

@dataclass(frozen=True)
class LexCone(Cone):
    """Quotient sign when the image is nontrivial, kernel sign on the fibre."""

    ses: ShortExactSeq
    kernel_cone: Cone
    quotient_cone: Cone

    @property
    def ctx(self) -> GroupCtx:
        return self.ses.total

    def _sign(self, w: Word) -> int:
        h = self.ses.project(w)
        if not h.is_identity():
            return self.quotient_cone.sign(h)
        return self.kernel_cone.sign(self.ses.kernel_pull(w))


def lex_cone(ses: ShortExactSeq, kernel_cone: Cone, quotient_cone: Cone) -> LexCone:
    if kernel_cone.ctx != ses.kernel or quotient_cone.ctx != ses.quotient:
        raise InvalidConeError("lex components must live on the SES kernel/quotient")
    return LexCone(ses, kernel_cone, quotient_cone)


# -- dynamical cone on the free group ---------------------------------------------

class _Lifted:
    """Element of the lifted Mobius group: a det-1 matrix plus a deck offset.

    Acts on the ordered universal cover of the projective line by
    (x, n) -> (Mx, n + crossing_M(x) + delta), which is
    ``mobius_cover(mat, x, n + delta)``.  ``pts`` and ``inv_pts`` cache the
    images of the owning cone's basepoints under the element and under its
    inverse, filled on first use.
    """

    __slots__ = ("mat", "delta", "pts", "inv_pts")

    def __init__(self, mat, delta=0):
        self.mat = mat
        self.delta = delta
        self.pts = self.inv_pts = None


PREFIX_MEMO_SYLLABLES = 64  # far above any ball word, far below a long word


def _lift_compose(e1: _Lifted, e2: _Lifted) -> _Lifted:
    """Element acting as e1 after e2: the crossing lift of the product,
    shifted by the sheets s of the Euler cocycle.

    As x -> -inf neither e2 nor the product crosses, and for c2 != 0 the
    point e2 x falls to a2/c2 from above, which e1 crosses iff
    a2/c2 >= -d1/c1, that is iff c12 = c1 a2 + d1 c2 is 0 or has the sign
    of c1 c2.  For c2 = 0, e2 x goes to -inf and nothing crosses.
    """
    (_, _, c1, d1), (a2, _, c2, _) = e1.mat, e2.mat
    c12 = c1 * a2 + d1 * c2
    s = c1 != 0 and c2 != 0 and (c12 == 0 or _sgn(c12) == _sgn(c1) * _sgn(c2))
    return _Lifted(e1.mat @ e2.mat, e1.delta + e2.delta + s)


def _lift_inverse(e: _Lifted) -> _Lifted:
    # (m^-1, delta') after (m, delta) is shifted by [c != 0] sheets
    return _Lifted(e.mat.inverse(), -e.delta - (e.mat.c != 0))


def _cmp_points(pt1, pt2) -> int:
    """Cover points compare sheet first, then by position on the line."""
    (t1, n1), (t2, n2) = pt1, pt2
    if n1 != n2:
        return 1 if n1 > n2 else -1
    return cmp_triples(t1, t2)


@dataclass(frozen=True)
class DynamicalCone(Cone):
    """Order on a free group from an exact Mobius action on basepoints.

    Generator images must be orientation-preserving (det +1), and basepoints
    irrational: an irrational point is never the rational pole of an integer
    matrix.  The action is lifted to the ordered universal cover of the circle
    so that pole crossings are counted exactly, and a word is positive when
    the first basepoint it moves goes up in the cover.  The memo cache only
    stores write-once derived values, so shared reads are harmless.
    """

    ctx: FreeCtx
    images: tuple[Mat2, ...]
    basepoints: tuple[QuadNum, ...]
    _memo: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.ctx, FreeCtx):
            raise InvalidConeError(
                f"a dynamical cone lives on a free group, not on {self.ctx!r}")
        if len(self.images) != len(self.ctx.gen_names):
            raise InvalidConeError("one matrix per generator required")
        for m in self.images:
            if m.det() != 1:
                raise InvalidConeError("generator images must have det +1")
        if not self.basepoints:
            raise InvalidConeError("a dynamical cone needs at least one basepoint")
        if any(x.is_rational() for x in self.basepoints):
            raise InvalidConeError("dynamical basepoints must be irrational surds")
        self._memo["base"] = tuple(((x.p, x.q, x.r, x.d), 0)
                                   for x in self.basepoints)

    def _letters(self):
        lifted = self._memo.get("letters")
        if lifted is None:
            lifted = {}
            for i, m in enumerate(self.images):
                e = _Lifted(m)
                lifted[(i, 1)] = e
                lifted[(i, -1)] = _lift_inverse(e)
            self._memo["letters"] = lifted
        return lifted

    def _power(self, g: int, e: int) -> _Lifted:
        """Lift of g^e by repeated squaring of the lifted letter, refused past
        ``LIFT_BITS_CAP`` bits and memoized under the word ``((g, e),)``."""
        memo, key = self._memo, ((g, e),)
        out = memo.get(key)
        if out is None:
            letter = self._letters()[(g, 1 if e > 0 else -1)]
            letter.mat.check_growth(abs(e), LIFT_BITS_CAP)
            out = memo[key] = repeated_squaring(letter, abs(e), _lift_compose,
                                                _Lifted(MAT_IDENTITY))
        return out

    def _element(self, w: Word) -> _Lifted:
        # compose forward from the longest memoized prefix, one power at a
        # time; prefixes of at most PREFIX_MEMO_SYLLABLES syllables are
        # memoized, so ball words share them and a long word takes linear memory
        memo, syls = self._memo, w.syllables
        k, out = min(len(syls), PREFIX_MEMO_SYLLABLES), None
        while k > 1 and (out := memo.get(syls[:k])) is None:
            k -= 1
        if out is None:     # k is 1, or 0 for the identity
            out = self._power(*syls[0]) if syls else _Lifted(MAT_IDENTITY)
        for k in range(k + 1, len(syls) + 1):
            out = _lift_compose(out, self._power(*syls[k - 1]))
            # both factors were under the cap, so the work past it is one product
            if max(map(abs, out.mat)).bit_length() > LIFT_BITS_CAP:
                raise ResourceLimitError(
                    f"a lift of {k} syllables passes {LIFT_BITS_CAP} bits")
            if k <= PREFIX_MEMO_SYLLABLES:
                memo[syls[:k]] = out
        return out

    def _points(self, el: _Lifted):
        """L(el) (x_i, 0) for each basepoint x_i, cached on the record."""
        if el.pts is None:
            el.pts = tuple(mobius_cover(el.mat, t, el.delta)
                           for t, _ in self._memo["base"])
        return el.pts

    def _inverse_points(self, el: _Lifted):
        """L(el)^-1 (x_i, 0) for each basepoint x_i, cached on the record."""
        if el.inv_pts is None:
            el.inv_pts = self._points(_lift_inverse(el))
        return el.inv_pts

    def _sign_of_element(self, el: _Lifted) -> int:
        for base in self._memo["base"]:
            c = _cmp_points(cover_image(el.mat, base[0], el.delta), base)
            if c != 0:
                return c
        raise InsufficientBasepointsError(
            "element fixes every basepoint of the dynamical cone")

    def _sign(self, w: Word) -> int:
        return self._sign_of_element(self._element(w))

    def _lift(self, w: Word) -> _Lifted:
        """The lift of any word of this group, memoized when it is a normal form."""
        el = self._memo.get(w.syllables) if w.nf and w.ctx is self.ctx else None
        return el if el is not None else self._element(self.ctx.normalize(w))

    def sign_of_product(self, words) -> int:
        """Sign of w1 ... wk as one ``sign_rows`` entry: the row's ends are w1
        and wk, and its middle is the product of the words between them."""
        words = tuple(words)
        if len(words) < 2:
            return super().sign_of_product(words)
        middle = reduce(self.ctx.mul, words[1:-1], self.ctx.identity())
        (row,) = self.sign_rows([(words[0], words[-1])], [middle])
        return next(row)

    def sign_rows(self, pairs, middles):
        """``Cone.sign_rows`` from cover points: L(left) is increasing, so left m
        right moves x up iff L(m) L(right) x lies above L(left)^-1 x, and the first
        basepoint where they differ decides.  The middles are lifted once, each row
        reads its two cached point tuples once, and an entry costs one sheet bound,
        or one unreduced ``cover_image``, per basepoint it reaches."""
        lifts = [(el.mat, el.delta) for el in map(self._lift, middles)]
        return (self._point_row(left, right, middles, lifts) for left, right in pairs)

    def _point_row(self, left, right, middles, lifts):
        starts = self._points(self._lift(right))
        targets = self._inverse_points(self._lift(left))
        for m, (mat, delta) in zip(middles, lifts):
            for (t, n), target in zip(starts, targets):
                # the image lies on sheet n + delta or on the one above it
                s = n + delta - target[1]
                c = (1 if s > 0 else -1 if s < -1 else
                     _cmp_points(cover_image(mat, t, n + delta), target))
                if c:
                    yield c
                    break
            else:   # every basepoint ties, and the generic path raises
                yield Cone.sign_of_product(self, (left, m, right))


def dynamical_cone(ctx: FreeCtx | None = None) -> DynamicalCone:
    """Default dynamical cone: a -> [[1,2],[0,1]], b -> [[1,0],[2,1]], at sqrt2, sqrt3.

    The images generate a free group and no nonidentity integer Mobius map
    fixes both basepoints, so the sign rule is total.
    """
    if ctx is None:
        ctx = FreeCtx(2)
    return DynamicalCone(ctx, (mat2([[1, 2], [0, 1]]), mat2([[1, 0], [2, 1]])),
                         (sqrt_of(2), sqrt_of(3)))


# -- conjugate and restriction wrappers --------------------------------------------

@dataclass(frozen=True)
class ConjugateCone(Cone):
    """sign(w) = sign_base(g^-1 w g), realizing the action g . P = g P g^-1.

    It signs through ``conj_cone(base, by)``, computed once and kept outside
    the dataclass fields, unless that is a wrapper again (an opaque base).
    """

    base: Cone
    by: Word

    @property
    def ctx(self) -> GroupCtx:
        return self.by.ctx  # the base's group, read without walking a nested base

    def simplified(self) -> Cone:
        memo = vars(self)
        if "_simplified" not in memo:
            memo["_simplified"] = conj_cone(self.base, self.by)
        return memo["_simplified"]

    def _sign(self, w: Word) -> int:
        s = self.simplified()
        return self.sign_of_product((w,)) if isinstance(s, ConjugateCone) else s.sign(w)

    def sign_of_product(self, words) -> int:
        s = self.simplified()
        if not isinstance(s, ConjugateCone):
            return s.sign_of_product(words)
        return s.base.sign_of_product([self.ctx.inv(s.by), *words, s.by])

    def sign_rows(self, pairs, middles):
        s = self.simplified()
        rows = super().sign_rows if isinstance(s, ConjugateCone) else s.sign_rows
        return rows(pairs, middles)


@dataclass(frozen=True)
class Embedding:
    """Injective homomorphism of one context into another, given explicitly."""

    sub: GroupCtx
    amb: GroupCtx
    apply: "callable" = field(compare=False)
    tag: tuple = ()

    def spot_check(self) -> None:
        ball = self.sub.ball(2)
        for u in ball:
            iu = self.apply(u)
            if u.is_identity() != iu.is_identity():
                raise InvalidEmbeddingError(f"embedding kills {u!r}")
            if self.apply(self.sub.inv(u)) != self.amb.inv(iu):
                raise InvalidEmbeddingError(f"embedding breaks inverses at {u!r}")
        for u in ball:
            for v in ball:
                lhs = self.apply(self.sub.mul(u, v))
                rhs = self.amb.mul(self.apply(u), self.apply(v))
                if lhs != rhs:
                    raise InvalidEmbeddingError(
                        f"embedding is not a homomorphism at {u!r}, {v!r}")


def ses_kernel_embedding(ses: ShortExactSeq) -> Embedding:
    return Embedding(ses.kernel, ses.total, ses.inject, tag=("ses_kernel", ses))


def cyclic_embedding(amb: GroupCtx, w: Word, gen_name: str = "u") -> Embedding:
    """The subgroup generated by one infinite-order element, as a copy of Z."""
    amb.check_word(w)
    sub = ZPowCtx(1, (gen_name,))

    def apply(k_word: Word) -> Word:
        (k,) = sub.vector(k_word)
        return w ** k

    return Embedding(sub, amb, apply, tag=("cyclic", w))


@dataclass(frozen=True)
class RestrictionCone(Cone):
    """Pullback of an ambient cone along a subgroup embedding."""

    base: Cone
    embedding: Embedding

    @property
    def ctx(self) -> GroupCtx:
        return self.embedding.sub

    def _sign(self, w: Word) -> int:
        return self.base.sign(self.embedding.apply(w))

    def simplified(self) -> Cone:
        base = self.base.simplified()
        if (self.embedding.tag and self.embedding.tag[0] == "ses_kernel"
                and isinstance(base, LexCone)
                and base.ses == self.embedding.tag[1]):
            return base.kernel_cone.simplified()
        if base is not self.base:
            return RestrictionCone(base, self.embedding)
        return self


def restrict_cone(c: Cone, embedding: Embedding) -> RestrictionCone:
    if embedding.amb != c.ctx:
        raise InvalidEmbeddingError("embedding target differs from the cone context")
    embedding.spot_check()
    return RestrictionCone(c, embedding)


# -- the conjugation action ----------------------------------------------------------

def conj_cone(c: Cone, g: Word) -> Cone:
    """The cone g . P: sign(w) = sign_P(g^-1 w g), a descriptor when computable.
    Wrappers fold first, g . (h . P) = (g h) . P, so a dynamical base lifts
    the whole product once, under one ``LIFT_BITS_CAP``."""
    ctx = c.ctx
    while isinstance(c, ConjugateCone):
        c, g = c.base, ctx.mul(g, c.by)
    c = c.simplified()
    g = ctx.normalize(g)
    if g.is_identity() or isinstance(ctx, ZPowCtx):
        return c  # abelian: the action is trivial
    if isinstance(c, KleinCone):
        _, a = ctx.yx_exponents(g)
        return KleinCone(ctx, c.ex, c.ey if a % 2 == 0 else -c.ey)
    if isinstance(c, LexCone):
        return LexCone(c.ses, *diag_conj((c.kernel_cone, c.quotient_cone), g, c.ses))
    if isinstance(c, DynamicalCone):
        # L(g^-1 w g) moves (x, 0) as L(w) moves L(g) (x, 0); lifts commute
        # with deck shifts, so only the projective point g x matters
        return DynamicalCone(ctx, c.images, tuple(
            quad(*t) for t, _ in c._points(c._element(g))))
    return ConjugateCone(c, g)


def kernel_conj_cone(ses: ShortExactSeq, kcone: Cone, g: Word) -> Cone:
    """Transport a kernel cone along conjugation by g in the total group:
    the result signs k as kcone signs g^-1 k g."""
    total = ses.total
    g = total.normalize(g)
    if g.is_identity():
        return kcone
    if isinstance(total, DirectProductCtx):
        return conj_cone(kcone, ses.kernel_part(g))
    if isinstance(total, SemidirectCtx):
        _, k = total.parts(g)
        if k == 0:
            return kcone  # kernel is abelian; inner part acts trivially
        s = kcone.simplified()
        if isinstance(s, (SlopeCone, QuadSlopeCone)):
            # g^-1 (v, 0) g = (A^-k v, 0), and a . A^-k v = (A^-k)^T a . v
            m = total.matrix.power(-k)
            a1, a2 = s.a
            a = (m.a * a1 + m.c * a2, m.b * a1 + m.d * a2)
            if isinstance(s, QuadSlopeCone):
                return quad_slope_cone(a, "+" if s.positive_side > 0 else "-", s.ctx)
            v = s.variant  # an orientation-reversing A^-k flips the tie character
            return slope_cone(a, v if m.det() > 0 else v[0] + _flip_variant(v[1]), s.ctx)

    def moved(w: Word) -> Word:
        return ses.kernel_pull(total.conj(total.inv(g), ses.inject(w)))

    return RestrictionCone(kcone, Embedding(ses.kernel, ses.kernel, moved,
                                            tag=("kernel_conj", ses, g)))


def diag_conj(pair: tuple[Cone, Cone], g: Word, ses: ShortExactSeq) -> tuple[Cone, Cone]:
    """The diagonal action g . (P_K, P_H) on kernel/quotient cone pairs."""
    pk, ph = pair
    return (kernel_conj_cone(ses, pk, g), conj_cone(ph, ses.project(g)))


# -- axiom checking -----------------------------------------------------------------

@dataclass(frozen=True)
class AxiomCheckReport:
    ok: bool
    kind: str | None = None           # "antisymmetry" | "closure"
    words: tuple = ()
    radius: int = 0


def check_cone_axioms_on_ball(c: Cone, r: int) -> AxiomCheckReport:
    """Verify antisymmetry, then closure on B_r by the census's clauses: a product
    u v = p of ``ball_products`` breaks closure iff u, v and p^-1 share one sign.
    The witness is the least positive pair (x, y) with x y negative, the one a
    scan of every positive pair would find first."""
    ctx = c.ctx
    index = ctx.ball_index(r)
    domain, inv = index.domain, index.inv
    signs = [c.sign(w) for w in domain]
    for i, w in enumerate(domain):
        if signs[i] != -signs[inv[i]]:
            return AxiomCheckReport(False, "antisymmetry", (w, domain[inv[i]]), r)
    unset = best = (len(domain),)   # above every witness (x, y, x y) of ids
    for u, v, p in ctx.ball_products(r):
        if u > best[0]:
            break   # every id of a later orbit is above u
        if signs[u] == signs[v] == -signs[p]:
            # the clause xyz = 1, turned around if negative, gives three
            # positive products x y = z^-1, y z = x^-1 and z x = y^-1
            x, y, z = (u, v, inv[p]) if signs[u] > 0 else (p, inv[v], inv[u])
            best = min(best, (x, y, inv[z]), (y, z, inv[x]), (z, x, inv[y]))
    if best is unset:
        return AxiomCheckReport(True, None, (), r)
    return AxiomCheckReport(False, "closure", tuple(domain[i] for i in best), r)


# -- slope detection -----------------------------------------------------------------

@dataclass(frozen=True)
class Slope:
    """Projective boundary direction of a Z^2 cone."""

    vec: tuple[int, int] | None = None
    direction: tuple[QuadNum, QuadNum] | None = None

    def is_rational(self) -> bool:
        return self.vec is not None


@dataclass(frozen=True)
class DetectResult:
    exact: bool
    slope: Slope | None
    variant: str | None
    sector: tuple[tuple[int, int], tuple[int, int]] | None
    radius: int


def _angular_sorted_primitives(r: int) -> list[tuple[int, int]]:
    vecs = [(m, n) for m in range(-r, r + 1) for n in range(-r, r + 1)
            if (m, n) != (0, 0) and gcd(abs(m), abs(n)) == 1]

    def half(v):
        m, n = v
        return 0 if (n > 0 or (n == 0 and m > 0)) else 1

    def cmp(u, v):
        hu, hv = half(u), half(v)
        if hu != hv:
            return hu - hv
        cross = u[0] * v[1] - u[1] * v[0]
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    return sorted(vecs, key=cmp_to_key(cmp))


def detect_slope(c: Cone, r: int = 8) -> DetectResult:
    """Read the boundary direction of a Z^2 cone.

    Descriptor-backed cones report exactly; opaque oracles are scanned over
    primitive vectors in angular order, and the bounding sector is reported
    rather than guessing a slope the ball cannot certify.
    """
    s = c.simplified()
    if isinstance(s, SlopeCone):
        return DetectResult(True, s.slope(), s.variant, None, r)
    if isinstance(s, QuadSlopeCone):
        sector = _scan_sector(s, r)
        sign_char = "+" if s.positive_side > 0 else "-"
        return DetectResult(True, s.slope(), sign_char, sector, r)
    if not isinstance(c.ctx, ZPowCtx) or c.ctx.rank != 2:
        raise InvalidConeError("slope detection needs a cone on Z^2")
    sector = _scan_sector(c, r)
    return DetectResult(False, None, None, sector, r)


def _scan_sector(c: Cone, r: int):
    if (2 * r + 1) ** 2 > BALL_ELEMENT_CAP:
        raise ResourceLimitError(
            f"slope scan of radius {r} exceeds cap of {BALL_ELEMENT_CAP} candidates")
    vecs = _angular_sorted_primitives(r)
    ctx = c.ctx
    signs = [c.sign(ctx.from_vector(v)) for v in vecs]
    flips = [i for i in range(len(vecs))
             if signs[i] != signs[(i + 1) % len(vecs)]]
    if len(flips) != 2:
        raise InvalidConeError(
            f"oracle is not half-plane consistent at radius {r}")
    for i in flips:
        if signs[i] == 1:
            return (vecs[i], vecs[(i + 1) % len(vecs)])
    raise InvalidConeError("no positive-to-negative transition found")

"""Positive cones as deterministic sign oracles.

A cone assigns every nonidentity normal form a sign in {+1, -1}; the
positive set is closed under multiplication and meets each {w, w^-1} pair
exactly once.  Concrete families: half-plane cones on Z^2 with rational or
quadratic-surd slopes, the four Klein-bottle cones, lexicographic cones on
group extensions, a dynamical cone on the free group built from an exact
Mobius action, plus conjugate and restriction wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cmp_to_key
from math import gcd

from .errors import (
    InsufficientBasepointsError, InvalidConeError, InvalidEmbeddingError,
    InvalidSlopeError, NoSignError, WrongConstructorError,
)
from .surd import (
    Mat2, QuadNum, cmp_triples, mat2, mobius_triple, primitive_vec,
    sign_int_surd, sqrt_of,
)
from .words import (
    FreeCtx, GroupCtx, KleinCtx, ShortExactSeq, Word, ZPowCtx,
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

    def descriptor(self) -> dict:
        raise NotImplementedError

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

    def descriptor(self):
        return {"kind": "slope", "a": list(self.a), "variant": self.variant}


def slope_cone(a, variant: str, ctx: ZPowCtx | None = None) -> SlopeCone:
    if variant not in _VARIANTS:
        raise InvalidSlopeError(f"variant must be one of {_VARIANTS}")
    if tuple(a) == (0, 0):
        raise InvalidSlopeError("zero vector has no associated cone")
    if ctx is None:
        ctx = ZPowCtx(2)
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

    def descriptor(self):
        return {"kind": "quad_slope",
                "a": [[c.p, c.q, c.r, c.d] for c in self.a],
                "sign": "+" if self.positive_side > 0 else "-"}


def quad_slope_cone(a, sign_char: str, ctx: ZPowCtx | None = None) -> QuadSlopeCone:
    if sign_char not in ("+", "-"):
        raise InvalidSlopeError("sign must be '+' or '-'")
    a1, a2 = a
    if a1.is_zero() and a2.is_zero():
        raise InvalidSlopeError("zero vector has no associated cone")
    if a1.is_zero() or a2.is_zero() or (a1 / a2).is_rational():
        raise WrongConstructorError(
            "rational slope: use slope_cone with its four variants")
    if ctx is None:
        ctx = ZPowCtx(2)
    return QuadSlopeCone(ctx, (a1, a2), 1 if sign_char == "+" else -1)


@dataclass(frozen=True)
class ZSignCone(Cone):
    """One of the two cones of Z."""

    ctx: ZPowCtx
    positive_side: int

    def _sign(self, w: Word) -> int:
        (k,) = self.ctx.vector(w)
        return self.positive_side * _sgn(k)

    def descriptor(self):
        return {"kind": "zsign", "sign": self.positive_side}


def z_cone(positive: bool = True, ctx: ZPowCtx | None = None) -> ZSignCone:
    if ctx is None:
        ctx = ZPowCtx(1)
    if ctx.rank != 1:
        raise InvalidSlopeError("z_cone lives on a rank-1 lattice")
    return ZSignCone(ctx, 1 if positive else -1)


# -- Klein bottle cones ---------------------------------------------------------

@dataclass(frozen=True)
class KleinCone(Cone):
    """Sign rule for y^b x^a: x-exponent decides unless it vanishes."""

    ctx: KleinCtx
    ex: int
    ey: int

    def __post_init__(self):
        if self.ex not in (1, -1) or self.ey not in (1, -1):
            raise InvalidConeError("Klein cone signs ex, ey must be +1 or -1")

    def _sign(self, w: Word) -> int:
        b, a = self.ctx.yx_exponents(w)
        if a != 0:
            return self.ex * _sgn(a)
        return self.ey * _sgn(b)

    def descriptor(self):
        return {"kind": "klein", "ex": self.ex, "ey": self.ey}


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

    def descriptor(self):
        return {"kind": "lex", "ses": list(self.ses.descriptor),
                "kernel": self.kernel_cone.descriptor(),
                "quotient": self.quotient_cone.descriptor()}


def lex_cone(ses: ShortExactSeq, kernel_cone: Cone, quotient_cone: Cone) -> LexCone:
    if kernel_cone.ctx != ses.kernel or quotient_cone.ctx != ses.quotient:
        raise InvalidConeError("lex components must live on the SES kernel/quotient")
    return LexCone(ses, kernel_cone, quotient_cone)


# -- dynamical cone on the free group ---------------------------------------------

def _crossing(mat, t) -> int:
    """1 if the point sits above the pole of the map, else 0 (0 for c = 0)."""
    a, b, c, dd = mat
    if c == 0:
        return 0
    p, q, r, d = t
    s = sign_int_surd(c * p + dd * r, c * q, d) * _sgn(c)
    if s == 0:
        raise InvalidConeError("basepoint hit a pole")
    return 1 if s > 0 else 0


class _Lifted:
    """Element of the lifted Mobius group: matrix plus deck offset.

    Acts on the ordered universal cover of the projective line by
    (x, n) -> (Mx, n + crossing_M(x) + delta).  The crossing lift of a
    product differs from the product of crossing lifts by a constant deck
    shift, so composition only needs one exact evaluation point.
    """

    __slots__ = ("mat", "delta", "img0", "cross0")

    def __init__(self, mat, delta, img0, cross0):
        self.mat = mat
        self.delta = delta
        self.img0 = img0
        self.cross0 = cross0


_BASE0 = (0, 1, 1, 2)  # sqrt(2); irrational, so it never meets a rational pole


def _lift_of_matrix(mat, delta=0) -> _Lifted:
    return _Lifted(mat, delta, mobius_triple(mat, _BASE0), _crossing(mat, _BASE0))


def _lift_identity() -> _Lifted:
    return _lift_of_matrix((1, 0, 0, 1))


def _lift_compose(e1: _Lifted, e2: _Lifted) -> _Lifted:
    """Element acting as e1 after e2."""
    m1, m2 = e1.mat, e2.mat
    a, b, c, d = m1
    e, f, g, h = m2
    m = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    img0 = mobius_triple(m1, e2.img0)
    cross0 = _crossing(m, _BASE0)
    eps = e2.cross0 + _crossing(m1, e2.img0) - cross0
    out = _Lifted(m, e1.delta + e2.delta + eps, img0, cross0)
    return out


def _lift_inverse(e: _Lifted) -> _Lifted:
    a, b, c, d = e.mat
    det = a * d - b * c
    minv = (d, -b, -c, a) if det == 1 else (-d, b, c, -a)
    img0 = mobius_triple(minv, _BASE0)
    cross0 = _crossing(minv, _BASE0)
    # delta' solves (minv, delta') (m, delta) = identity
    eps = e.cross0 + _crossing(minv, e.img0) - 0
    return _Lifted(minv, -e.delta - eps, img0, cross0)


@dataclass(frozen=True)
class DynamicalCone(Cone):
    """Order on a free group from an exact Mobius action on basepoints.

    Generator images must be orientation-preserving (det +1); the action is
    lifted to the ordered universal cover of the circle so that pole
    crossings are counted exactly, and a word is positive when the first
    basepoint it moves goes up in the cover.  The memo cache only stores
    write-once derived values, so shared reads are harmless.
    """

    ctx: FreeCtx
    images: tuple[Mat2, ...]
    basepoints: tuple[QuadNum, ...]
    _memo: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if len(self.images) != len(self.ctx.gen_names):
            raise InvalidConeError("one matrix per generator required")
        for m in self.images:
            if m.det() != 1:
                raise InvalidConeError("generator images must have det +1")

    def _letters(self):
        lifted = self._memo.get("letters")
        if lifted is None:
            lifted = {}
            for i, m in enumerate(self.images):
                e = _lift_of_matrix((m.a, m.b, m.c, m.d))
                lifted[(i, 1)] = e
                lifted[(i, -1)] = _lift_inverse(e)
            self._memo["letters"] = lifted
        return lifted

    def _element(self, w: Word) -> _Lifted:
        key = w.syllables
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        letters = self._letters()
        if not key:
            out = _lift_identity()
        else:
            # peel the last letter so prefixes of ball words are shared
            g, e = key[-1]
            step = 1 if e > 0 else -1
            prefix = key[:-1] if abs(e) == 1 else key[:-1] + ((g, e - step),)
            out = _lift_compose(self._element(Word(self.ctx, prefix, True)),
                                letters[(g, step)])
        self._memo[key] = out
        return out

    def _sign_of_element(self, el: _Lifted) -> int:
        for bp in self.basepoints:
            t = (bp.p, bp.q, bp.r, bp.d)
            n = _crossing(el.mat, t) + el.delta
            if n != 0:
                return 1 if n > 0 else -1
            c = cmp_triples(mobius_triple(el.mat, t), t)
            if c != 0:
                return c
        raise InsufficientBasepointsError(
            "element fixes every basepoint of the dynamical cone")

    def _sign(self, w: Word) -> int:
        return self._sign_of_element(self._element(w))

    def sign_of_product(self, words) -> int:
        words = [self.ctx.normalize(w) for w in words]
        el = _lift_identity()
        for w in words:
            el = _lift_compose(el, self._element(w))
        if el.mat in ((1, 0, 0, 1), (-1, 0, 0, -1)) and el.delta == 0:
            # trivial cover element: decide whether the word itself is trivial
            out = self.ctx.identity()
            for w in words:
                out = self.ctx.mul(out, w)
            if out.is_identity():
                raise NoSignError("the identity has no sign")
            raise InsufficientBasepointsError(
                "element fixes every basepoint of the dynamical cone")
        return self._sign_of_element(el)

    def descriptor(self):
        return {"kind": "dynamical",
                "images": [m.rows() for m in self.images],
                "basepoints": [[b.p, b.q, b.r, b.d] for b in self.basepoints]}


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
    """sign(w) = sign_base(g^-1 w g), realizing the action g . P = g P g^-1."""

    base: Cone
    by: Word

    @property
    def ctx(self) -> GroupCtx:
        return self.base.ctx

    def _sign(self, w: Word) -> int:
        g = self.by
        return self.base.sign_of_product([self.ctx.inv(g), w, g])

    def sign_of_product(self, words) -> int:
        g = self.by
        return self.base.sign_of_product([self.ctx.inv(g), *words, g])

    def simplified(self) -> Cone:
        base = self.base.simplified()
        if base is not self.base:
            return ConjugateCone(base, self.by)
        return self

    def descriptor(self):
        return {"kind": "conjugate", "by": self.by.pairs(),
                "base": self.base.descriptor()}


@dataclass(frozen=True)
class Embedding:
    """Injective homomorphism of one context into another, given explicitly."""

    sub: GroupCtx
    amb: GroupCtx
    apply: "callable" = field(compare=False)
    tag: tuple = ()

    def spot_check(self, r: int = 2) -> None:
        ball = self.sub.ball(r)
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

    def descriptor(self):
        tag = self.embedding.tag
        if tag and tag[0] == "cyclic":
            emb = {"type": "cyclic", "word": tag[1].pairs()}
        elif tag and tag[0] == "ses_kernel":
            emb = {"type": "ses_kernel", "ses": list(tag[1].descriptor)}
        else:
            emb = {"type": "opaque"}
        return {"kind": "restriction", "embedding": emb,
                "base": self.base.descriptor()}


def restrict_cone(c: Cone, embedding: Embedding, check_radius: int = 2) -> RestrictionCone:
    if embedding.amb != c.ctx:
        raise InvalidEmbeddingError("embedding target differs from the cone context")
    embedding.spot_check(check_radius)
    return RestrictionCone(c, embedding)


# -- axiom checking -----------------------------------------------------------------

@dataclass(frozen=True)
class AxiomCheckReport:
    ok: bool
    kind: str | None = None           # "antisymmetry" | "closure"
    words: tuple = ()
    radius: int = 0

    def to_dict(self):
        return {"ok": self.ok, "kind": self.kind, "radius": self.radius,
                "words": [w.pairs() for w in self.words]}


def check_cone_axioms_on_ball(c: Cone, r: int) -> AxiomCheckReport:
    """Verify antisymmetry and positive-closure on B_r; first witness wins."""
    ctx = c.ctx
    nonident = [w for w in ctx.ball(r) if not w.is_identity()]
    # keyed by normal-form syllables: every word here comes from ctx itself
    signs = {w.syllables: c.sign(w) for w in nonident}
    for w in nonident:
        if signs[w.syllables] != -signs[ctx.inv(w).syllables]:
            return AxiomCheckReport(False, "antisymmetry", (w, ctx.inv(w)), r)
    positives = [w for w in nonident if signs[w.syllables] == 1]
    for u in positives:
        for v in positives:
            uv = ctx.mul(u, v)
            if signs.get(uv.syllables, 1) != 1:
                return AxiomCheckReport(False, "closure", (u, v, uv), r)
    return AxiomCheckReport(True, None, (), r)


# -- slope detection -----------------------------------------------------------------

@dataclass(frozen=True)
class Slope:
    """Projective boundary direction of a Z^2 cone."""

    vec: tuple[int, int] | None = None
    direction: tuple[QuadNum, QuadNum] | None = None

    def is_rational(self) -> bool:
        return self.vec is not None

    def to_dict(self):
        if self.vec is not None:
            return {"rational": list(self.vec)}
        return {"surd": [[c.p, c.q, c.r, c.d] for c in self.direction]}


@dataclass(frozen=True)
class DetectResult:
    exact: bool
    slope: Slope | None
    variant: str | None
    sector: tuple[tuple[int, int], tuple[int, int]] | None
    radius: int

    def to_dict(self):
        return {"exact": self.exact,
                "slope": self.slope.to_dict() if self.slope else None,
                "variant": self.variant,
                "sector": [list(v) for v in self.sector] if self.sector else None,
                "radius": self.radius}


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

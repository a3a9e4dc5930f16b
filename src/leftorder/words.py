"""Words, normal forms and group contexts.

Every group element is a :class:`Word`: a freely reduced sequence of
(generator, exponent) syllables owned by a :class:`GroupCtx`.  Each context
family supplies a confluent normal form, so two words are equal in the group
iff their normal forms coincide.  Multiplication, inversion, balls and
abelianization are derived generically from the normal form.

Trust rule: every word a context method returns (``word``, ``identity``,
``mul``, ``inv``, ``normalize``, ``ball``, ``factor_word``, ``embed_factor``,
``from_vector``, ``from_parts``) is already in that context's normal form and
carries ``nf=True``.  Such a word skips ``check_word`` and ``_normalize`` when
it comes back to the same context object.  A ``Word(ctx, syllables)`` built
anywhere else has ``nf=False`` and is checked and normalized on first use, so
a foreign context, an unknown generator id or unreduced syllables are handled
exactly as before.  The marker is neither compared nor hashed.

``mul`` multiplies two normal forms through ``_product(a, b)``.  Its default
normalizes the concatenation; free groups and free products override it to
cancel and merge only where the two words meet.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    BrokenSESError, ContextMismatchError, MalformedWordError,
    ResourceLimitError,
)
from .surd import MAT_IDENTITY, Mat2

Syllables = tuple[tuple[int, int], ...]

BALL_ELEMENT_CAP = 300_000


def _merge_reduce(syllables) -> Syllables:
    """Merge adjacent equal-generator syllables, dropping zero exponents."""
    out: list[list[int]] = []
    for g, e in syllables:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            out[-1][1] += e
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([g, e])
    return tuple((g, e) for g, e in out)


@dataclass(frozen=True)
class Word:
    ctx: "GroupCtx"
    syllables: Syllables
    nf: bool = field(default=False, compare=False, repr=False)

    def __mul__(self, other: "Word") -> "Word":
        return self.ctx.mul(self, other)

    def inv(self) -> "Word":
        return self.ctx.inv(self)

    def __invert__(self) -> "Word":
        return self.ctx.inv(self)

    def __pow__(self, k: int) -> "Word":
        base = self if k >= 0 else self.inv()
        out = self.ctx.identity()
        k = abs(k)
        while k:  # repeated squaring
            if k & 1:
                out = self.ctx.mul(out, base)
            k >>= 1
            if k:
                base = self.ctx.mul(base, base)
        return out

    def is_identity(self) -> bool:
        return not self.syllables

    def length(self) -> int:
        return sum(abs(e) for _, e in self.syllables)

    def shortlex_key(self):
        letters = []
        for g, e in self.syllables:
            letters.extend([(g, 0 if e > 0 else 1)] * abs(e))
        return (len(letters), tuple(letters))

    def pairs(self) -> list[list]:
        return [[self.ctx.gen_names[g], e] for g, e in self.syllables]

    def __repr__(self) -> str:
        if not self.syllables:
            return "1"
        return "*".join(
            self.ctx.gen_names[g] + (f"^{e}" if e != 1 else "")
            for g, e in self.syllables)


@dataclass(frozen=True)
class AbelianImage:
    """Exponent-sum image: free coordinates plus (residue, modulus) torsion flags."""

    free: tuple[int, ...]
    torsion: tuple[tuple[int, int], ...] = ()


class GroupCtx:
    """Base class; subclasses provide a confluent normal form on syllables."""

    gen_names: tuple[str, ...]

    def _normalize(self, syllables: Syllables) -> Syllables:
        raise NotImplementedError

    def _product(self, a: Syllables, b: Syllables) -> Syllables:
        """Normal form of the product of two normal forms."""
        return self._normalize(a + b)

    def descriptor(self) -> dict:
        raise NotImplementedError

    def abelianize_word(self, w: Word) -> AbelianImage:
        raise NotImplementedError

    # -- generic machinery ------------------------------------------------

    def check_word(self, w: Word) -> None:
        if w.nf and w.ctx is self:
            return
        if w.ctx is not self and w.ctx != self:
            raise ContextMismatchError(f"word {w!r} belongs to another context")
        for g, _ in w.syllables:
            if not 0 <= g < len(self.gen_names):
                raise MalformedWordError(f"generator id {g} out of range")

    def word(self, pairs) -> Word:
        """Build a word from (name-or-index, exponent) pairs and normalize."""
        syls = []
        for g, e in pairs:
            if isinstance(g, str):
                try:
                    g = self.gen_names.index(g)
                except ValueError:
                    raise MalformedWordError(f"unknown generator {g!r}")
            if not 0 <= g < len(self.gen_names):
                raise MalformedWordError(f"generator id {g} out of range")
            syls.append((g, e))
        return Word(self, self._normalize(tuple(syls)), True)

    def identity(self) -> Word:
        return Word(self, (), True)

    def gens(self) -> list[Word]:
        return [self.word([(i, 1)]) for i in range(len(self.gen_names))]

    def _nf(self, w: Word) -> Syllables:
        """The normal form of w: its syllables when trusted, else checked and normalized."""
        if w.nf and w.ctx is self:
            return w.syllables
        self.check_word(w)
        return self._normalize(w.syllables)

    def normalize(self, w: Word) -> Word:
        if w.nf and w.ctx is self:
            return w
        return Word(self, self._nf(w), True)

    def mul(self, u: Word, v: Word) -> Word:
        # the trusted case of _nf, inlined: mul is the hottest call of every scan
        a = u.syllables if u.nf and u.ctx is self else self._nf(u)
        b = v.syllables if v.nf and v.ctx is self else self._nf(v)
        return Word(self, self._product(a, b), True)

    def inv(self, u: Word) -> Word:
        # the inverse of a normal form need not be one (Klein, semidirect)
        rev = tuple((g, -e) for g, e in reversed(self._nf(u)))
        return Word(self, self._normalize(rev), True)

    def conj(self, g: Word, w: Word) -> Word:
        """g w g^-1."""
        return self.mul(self.mul(g, w), self.inv(g))

    def ball_generators(self) -> list[Word]:
        gens = self.gens()
        return gens + [self.inv(g) for g in gens]

    def ball(self, r: int, gens: tuple[Word, ...] | None = None,
             cap: int = BALL_ELEMENT_CAP) -> list[Word]:
        """All elements reachable by <= r generator letters, sorted shortlex."""
        if gens is None:
            key = (self, r)
            cached = _BALL_CACHE.get(key)
            if cached is not None:
                if len(cached) > cap:
                    raise ResourceLimitError(
                        f"ball exceeds cap of {cap} elements")
                if cached and cached[0].ctx is not self:
                    # filled by an equal context: hand out words this one trusts
                    return [Word(self, w.syllables, True) for w in cached]
                return list(cached)
        letters = list(gens) if gens is not None else self.ball_generators()
        seen = {self.identity()}
        frontier = [self.identity()]
        for _ in range(r):
            nxt = []
            for w in frontier:
                for let in letters:
                    w2 = self.mul(w, let)
                    if w2 not in seen:
                        seen.add(w2)
                        nxt.append(w2)
                        if len(seen) > cap:
                            raise ResourceLimitError(
                                f"ball exceeds cap of {cap} elements")
            frontier = nxt
        out = sorted(seen, key=Word.shortlex_key)
        if gens is None:
            _BALL_CACHE[(self, r)] = tuple(out)
        return out

    def __repr__(self) -> str:
        return f"<{self.descriptor()['family']} on {','.join(self.gen_names)}>"


_BALL_CACHE: dict = {}


# -- free groups ----------------------------------------------------------

@dataclass(frozen=True, repr=False)
class FreeCtx(GroupCtx):
    rank: int
    gen_names: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.gen_names:
            names = tuple("abcdefgh"[i] for i in range(self.rank))
            object.__setattr__(self, "gen_names", names)

    def _normalize(self, syllables):
        return _merge_reduce(syllables)

    def _product(self, a, b):
        # cancel inverse syllables where a and b meet, merge one partial
        i, j, n = len(a), 0, len(b)
        while i and j < n and a[i - 1][0] == b[j][0]:
            e = a[i - 1][1] + b[j][1]
            if e:
                return a[:i - 1] + ((b[j][0], e),) + b[j + 1:]
            i -= 1
            j += 1
        return a[:i] + b[j:]

    def descriptor(self):
        return {"family": "free", "rank": self.rank,
                "gens": list(self.gen_names)}

    def abelianize_word(self, w):
        sums = [0] * self.rank
        for g, e in w.syllables:
            sums[g] += e
        return AbelianImage(tuple(sums))


# -- free abelian groups ----------------------------------------------------

@dataclass(frozen=True, repr=False)
class ZPowCtx(GroupCtx):
    rank: int
    gen_names: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.gen_names:
            names = tuple(f"e{i + 1}" for i in range(self.rank))
            object.__setattr__(self, "gen_names", names)

    def _normalize(self, syllables):
        sums = {}
        for g, e in syllables:
            sums[g] = sums.get(g, 0) + e
        return tuple((g, sums[g]) for g in sorted(sums) if sums[g] != 0)

    def descriptor(self):
        return {"family": "zpow", "rank": self.rank,
                "gens": list(self.gen_names)}

    def vector(self, w: Word) -> tuple[int, ...]:
        v = [0] * self.rank
        for g, e in w.syllables:
            v[g] = e
        return tuple(v)

    def from_vector(self, v) -> Word:
        return self.word(list(enumerate(v)))

    def abelianize_word(self, w):
        return AbelianImage(self.vector(w))

    def box_generators(self) -> list[Word]:
        """Max-norm generating set; only meaningful for rank 2."""
        if self.rank != 2:
            raise MalformedWordError("box generators are a rank-2 notion")
        vecs = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]
        return [self.from_vector(v) for v in vecs]


# -- Klein bottle group <x, y | x y x^-1 = y^-1> ----------------------------

@dataclass(frozen=True, repr=False)
class KleinCtx(GroupCtx):
    gen_names: tuple[str, str] = ("x", "y")

    X, Y = 0, 1

    def _normalize(self, syllables):
        # canonical form y^b x^a; right-multiplying y^b x^a by y^e gives
        # y^(b + (-1)^a e) x^a, by x^e gives y^b x^(a+e)
        b = a = 0
        for g, e in syllables:
            if g == self.X:
                a += e
            elif g == self.Y:
                b += e if a % 2 == 0 else -e
            else:
                raise MalformedWordError(f"generator id {g} out of range")
        out = []
        if b:
            out.append((self.Y, b))
        if a:
            out.append((self.X, a))
        return tuple(out)

    def descriptor(self):
        return {"family": "klein", "gens": list(self.gen_names)}

    def yx_exponents(self, w: Word) -> tuple[int, int]:
        """(b, a) with w = y^b x^a."""
        b = a = 0
        for g, e in w.syllables:
            if g == self.Y:
                b = e
            else:
                a = e
        return b, a

    def abelianize_word(self, w):
        b, a = self.yx_exponents(w)
        return AbelianImage((a,), ((b % 2, 2),))


# -- free and direct products -------------------------------------------------

@dataclass(frozen=True, repr=False)
class _ProductCtx(GroupCtx):
    """Generators of each factor, renumbered after those of the factors before it.

    Subclasses name their ``family`` and supply the normal form.
    """

    factors: tuple[GroupCtx, ...]
    gen_names: tuple[str, ...] = ()
    offsets: tuple[int, ...] = ()

    family = ""

    def __post_init__(self):
        names, offsets, at = [], [], 0
        for f in self.factors:
            offsets.append(at)
            names.extend(f.gen_names)
            at += len(f.gen_names)
        if len(set(names)) != len(names):
            raise MalformedWordError("factor generator names collide")
        object.__setattr__(self, "gen_names", tuple(names))
        object.__setattr__(self, "offsets", tuple(offsets))

    def factor_of(self, g: int) -> int:
        for i in reversed(range(len(self.factors))):
            if g >= self.offsets[i]:
                return i
        raise MalformedWordError(f"generator id {g} out of range")

    def _local(self, i: int, syls: Syllables) -> Syllables:
        off = self.offsets[i]
        return tuple((g - off, e) for g, e in syls)

    def _global(self, i: int, syls: Syllables) -> Syllables:
        off = self.offsets[i]
        return tuple((g + off, e) for g, e in syls)

    def descriptor(self):
        return {"family": self.family,
                "factors": [f.descriptor() for f in self.factors]}

    def factor_word(self, i: int, w: Word) -> Word:
        """Image of w under the retraction killing all other factors."""
        self.check_word(w)
        keep = [(g - self.offsets[i], e) for g, e in w.syllables
                if self.factor_of(g) == i]
        return Word(self.factors[i], self.factors[i]._normalize(tuple(keep)),
                    True)

    def embed_factor(self, i: int, w: Word) -> Word:
        # a factor normal form, renumbered, is a normal form of the product
        return Word(self, self._global(i, self.factors[i]._nf(w)), True)

    def abelianize_word(self, w):
        free, torsion = [], []
        for i, f in enumerate(self.factors):
            img = f.abelianize_word(self.factor_word(i, w))
            free.extend(img.free)
            torsion.extend(img.torsion)
        return AbelianImage(tuple(free), tuple(torsion))


class FreeProductCtx(_ProductCtx):
    family = "free_product"

    def _normalize(self, syllables):
        # stack of maximal factor runs, each kept in factor normal form;
        # adjacent stack entries always carry distinct factors, so a run that
        # cancels away simply exposes the previous run for further merging
        stack: list[tuple[int, Syllables]] = []
        for g, e in syllables:
            if e == 0:
                continue
            i = self.factor_of(g)
            if stack and stack[-1][0] == i:
                prev = stack.pop()[1]
                merged = self.factors[i]._normalize(prev + self._local(i, ((g, e),)))
            else:
                merged = self.factors[i]._normalize(self._local(i, ((g, e),)))
            if merged:
                stack.append((i, merged))
        result: list[tuple[int, int]] = []
        for i, run in stack:
            result.extend(self._global(i, run))
        return tuple(result)

    def _product(self, a, b):
        # merge the last factor run of a with the first of b; when they cancel
        # to nothing, the next pair of runs meets
        factor_of = self.factor_of
        while a and b:
            i = factor_of(a[-1][0])
            if factor_of(b[0][0]) != i:
                break
            s = len(a) - 1
            while s and factor_of(a[s - 1][0]) == i:
                s -= 1
            t, n = 1, len(b)
            while t < n and factor_of(b[t][0]) == i:
                t += 1
            f = self.factors[i]
            merged = f._product(self._local(i, a[s:]), self._local(i, b[:t]))
            if merged:
                return a[:s] + self._global(i, merged) + b[t:]
            a, b = a[:s], b[t:]
        return a + b


class DirectProductCtx(_ProductCtx):
    family = "direct_product"

    def _normalize(self, syllables):
        per = [[] for _ in self.factors]
        for g, e in syllables:
            i = self.factor_of(g)
            per[i].append((g - self.offsets[i], e))
        out = []
        for i, f in enumerate(self.factors):
            off = self.offsets[i]
            out.extend((g + off, e) for g, e in f._normalize(tuple(per[i])))
        return tuple(out)


# -- semidirect products Z^2 x| Z ---------------------------------------------

@dataclass(frozen=True, repr=False)
class SemidirectCtx(GroupCtx):
    """Z^2 x| Z with stable letter t acting on the lattice by a unimodular matrix.

    Elements are (v, k) = a^v1 b^v2 t^k with
    (v1, k1)(v2, k2) = (v1 + A^k1 v2, k1 + k2).
    """

    matrix: Mat2
    gen_names: tuple[str, str, str] = ("a", "b", "t")

    A1, A2, T = 0, 1, 2

    def __post_init__(self):
        if self.matrix.det() not in (1, -1):
            raise MalformedWordError("semidirect action matrix must be unimodular")

    def state(self, syllables) -> tuple[int, int, int]:
        v1 = v2 = k = 0
        m, at = MAT_IDENTITY, 0  # m = A^at, caught up with k when a lattice letter needs it
        for g, e in syllables:
            if g == self.T:
                k += e
            elif g in (self.A1, self.A2):
                if at != k:
                    m, at = m @ self.matrix.power(k - at), k
                dv = m.apply_vec((e, 0) if g == self.A1 else (0, e))
                v1, v2 = v1 + dv[0], v2 + dv[1]
            else:
                raise MalformedWordError(f"generator id {g} out of range")
        return v1, v2, k

    def _normalize(self, syllables):
        v1, v2, k = self.state(syllables)
        out = []
        if v1:
            out.append((self.A1, v1))
        if v2:
            out.append((self.A2, v2))
        if k:
            out.append((self.T, k))
        return tuple(out)

    def descriptor(self):
        return {"family": "semidirect", "matrix": self.matrix.rows(),
                "gens": list(self.gen_names)}

    def parts(self, w: Word) -> tuple[tuple[int, int], int]:
        v1, v2, k = self.state(w.syllables)
        return (v1, v2), k

    def from_parts(self, v: tuple[int, int], k: int) -> Word:
        return self.word([(self.A1, v[0]), (self.A2, v[1]), (self.T, k)])

    def abelianize_word(self, w):
        # H1 = Z^2/(A - I)Z^2 (+) Z; Smith form of A - I gives the torsion
        v, k = self.parts(w)
        m = Mat2(self.matrix.a - 1, self.matrix.b,
                 self.matrix.c, self.matrix.d - 1)
        free, torsion = _smith_quotient(m, v)
        return AbelianImage(tuple(free) + (k,), tuple(torsion))


def _smith_quotient(m: Mat2, v: tuple[int, int]):
    """Coordinates of v in Z^2 / m Z^2: free ones and (residue, modulus) flags.

    Row operations, applied to v as well, and column operations, which keep
    the lattice m Z^2, bring m to diag(d0, d1) with d0 | d1.
    """
    a = [[m.a, m.b], [m.c, m.d]]
    x, y = v
    while any(a[0]) or any(a[1]):
        # move the entry of least magnitude to the pivot
        _, i, j = min((abs(a[i][j]), i, j) for i in (0, 1) for j in (0, 1)
                      if a[i][j])
        if i:
            a.reverse()
            x, y = y, x
        if j:
            a = [row[::-1] for row in a]
        p = a[0][0]
        q = a[1][0] // p
        a[1] = [a[1][0] - q * p, a[1][1] - q * a[0][1]]
        y -= q * x
        q = a[0][1] // p
        a[0][1] -= q * p
        a[1][1] -= q * a[1][0]
        if a[0][1] or a[1][0]:
            continue  # a remainder smaller than the pivot: pivot again
        if a[1][1] % p == 0:
            break
        a[0][1] = a[1][1]  # add row 1 to row 0
        x += y
    free, torsion = [], []
    for coord, d in ((x, abs(a[0][0])), (y, abs(a[1][1]))):
        if d == 0:
            free.append(coord)
        elif d > 1:
            torsion.append((coord % d, d))
    return free, torsion


# -- short exact sequences ----------------------------------------------------

@dataclass(frozen=True)
class ShortExactSeq:
    """1 -> K -> G -> H -> 1 with an explicit set-theoretic section."""

    kernel: GroupCtx
    total: GroupCtx
    quotient: GroupCtx
    inject: "callable" = field(compare=False)
    project: "callable" = field(compare=False)
    section: "callable" = field(compare=False)
    kernel_pull: "callable" = field(compare=False)
    descriptor: tuple = ()

    def kernel_part(self, g: Word) -> Word:
        """Kernel coordinate g * s(q(g))^-1, pulled back to the kernel context."""
        h = self.project(g)
        rest = self.total.mul(g, self.total.inv(self.section(h)))
        return self.kernel_pull(rest)


def validate_ses(ses: ShortExactSeq, r: int = 3) -> None:
    for k in ses.kernel.ball(r):
        if not ses.project(ses.inject(k)).is_identity():
            raise BrokenSESError(f"q(i({k!r})) is nontrivial")
        if ses.kernel_pull(ses.inject(k)) != k:
            raise BrokenSESError(f"kernel pull-back fails on {k!r}")
    for h in ses.quotient.ball(r):
        if ses.project(ses.section(h)) != h:
            raise BrokenSESError(f"q(s({h!r})) != {h!r}")
    if not ses.section(ses.quotient.identity()).is_identity():
        raise BrokenSESError("section must send 1 to 1")
    for g in ses.total.ball(min(r, 2)):
        k = ses.kernel_part(g)
        recon = ses.total.mul(ses.inject(k), ses.section(ses.project(g)))
        if recon != g:
            raise BrokenSESError(f"g != i(kernel_part(g)) s(q(g)) at {g!r}")


def direct_product_ses(dp: DirectProductCtx, kernel_factor: int = 0) -> ShortExactSeq:
    """Split SES with the chosen factor as kernel and the other as quotient."""
    if len(dp.factors) != 2:
        raise MalformedWordError("SES needs a two-factor product")
    kf, qf = kernel_factor, 1 - kernel_factor
    kernel, quotient = dp.factors[kf], dp.factors[qf]

    def inject(k):
        return dp.embed_factor(kf, k)

    def project(g):
        return dp.factor_word(qf, g)

    def section(h):
        return dp.embed_factor(qf, h)

    def kernel_pull(g):
        if not dp.factor_word(qf, g).is_identity():
            raise BrokenSESError(f"{g!r} is not a kernel element")
        return dp.factor_word(kf, g)

    return ShortExactSeq(kernel, dp, quotient, inject, project, section,
                         kernel_pull,
                         descriptor=("direct_product", kernel_factor))


def semidirect_ses(sd: SemidirectCtx) -> ShortExactSeq:
    """1 -> Z^2 -> Z^2 x| Z -> Z -> 1 with section t^k."""
    kernel = ZPowCtx(2, (sd.gen_names[0], sd.gen_names[1]))
    quotient = ZPowCtx(1, (sd.gen_names[2],))

    def inject(k):
        v = kernel.vector(k)
        return sd.from_parts((v[0], v[1]), 0)

    def project(g):
        _, k = sd.parts(g)
        return quotient.from_vector((k,))

    def section(h):
        (k,) = quotient.vector(h)
        return sd.from_parts((0, 0), k)

    def kernel_pull(g):
        v, k = sd.parts(g)
        if k != 0:
            raise BrokenSESError(f"{g!r} is not a kernel element")
        return kernel.from_vector(v)

    return ShortExactSeq(kernel, sd, quotient, inject, project, section,
                         kernel_pull, descriptor=("semidirect",))

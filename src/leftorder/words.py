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

``mul`` multiplies two normal forms through ``_product(a, b)``.  Each family
gives one rule: Klein, semidirect and direct products give ``_normalize``,
and their ``_product`` normalizes the concatenation; Z^n gives ``_product``,
a merge that adds exponent vectors, and free groups and free products give
one that cancels and merges only where the two words meet.  Their
``_normalize`` multiplies the normal forms of the two halves of the syllables.
``inv`` wraps ``_inverse``, which reverses and negates a normal form, reduced
already under a free law; Z^n negates in place, the others normalize it.

``ball_index`` numbers a word ball once per context (``ball`` is its list
view), and ``ball_products`` yields the in-ball products of two of its
elements as id triples, one product per orbit of abc = 1: a pair loop by
default, and a walk on any context whose law is free reduction (free
groups, and free products of free factors such as ``zz-free``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    BrokenSESError, ContextMismatchError, MalformedWordError,
    ResourceLimitError,
)
from .surd import MAT_IDENTITY, Mat2, repeated_squaring

Syllables = tuple[tuple[int, int], ...]

BALL_ELEMENT_CAP = 300_000


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
        return repeated_squaring(base, abs(k), self.ctx.mul, self.ctx.identity())

    def is_identity(self) -> bool:
        return not self.syllables

    def length(self) -> int:
        return sum(abs(e) for _, e in self.syllables)

    def shortlex_key(self):
        """Shortlex on the spelled-out letters, a letter keyed (generator, e < 0).

        A syllable keys as its letter, then whether the next letter sorts
        above it (the word's end sorts below), then its run length, negated
        when the next letter sorts above.  That is the letter order in memory
        linear in the syllables, because adjacent syllables of a normal form
        have different letters.
        """
        letters = [(g, e < 0) for g, e in self.syllables]
        key = []
        for k, (g, e) in enumerate(self.syllables):
            up = k + 1 < len(letters) and letters[k + 1] > letters[k]
            key.append((letters[k], up, -abs(e) if up else abs(e)))
        return (self.length(), tuple(key))

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


class BallIndex:
    """B_r on ``gens`` in shortlex order: ``words``, and ``domain`` without 1.

    ``ids`` maps the syllables of ``domain[i]`` to ``i``, and ``inv[i]``,
    built on first use, is the id of its inverse.
    """

    def __init__(self, ctx: "GroupCtx", r: int, gens: tuple[Word, ...] | None):
        letters = list(gens) if gens is not None else ctx.ball_generators()
        seen = {ctx.identity()}
        frontier = [ctx.identity()]
        for _ in range(r):
            nxt = []
            for w in frontier:
                for let in letters:
                    w2 = ctx.mul(w, let)
                    if w2 not in seen:
                        seen.add(w2)
                        nxt.append(w2)
                        if len(seen) > BALL_ELEMENT_CAP:
                            raise ResourceLimitError(
                                f"ball exceeds cap of {BALL_ELEMENT_CAP} elements")
            frontier = nxt
        self.ctx = ctx
        self.words = tuple(sorted(seen, key=Word.shortlex_key))
        self.domain = self.words[1:]   # the identity sorts first
        self.ids = {w.syllables: i for i, w in enumerate(self.domain)}

    @cached_property
    def inv(self) -> list[int]:
        inverse, ids = self.ctx._inverse, self.ids
        try:
            return [ids[inverse(w.syllables)] for w in self.domain]
        except KeyError:
            raise MalformedWordError(
                "ball generators are not closed under inverses") from None


class GroupCtx:
    """Base class; subclasses provide a confluent normal form on syllables."""

    gen_names: tuple[str, ...]
    _free_law = False   # whether the group law is free reduction on the letters

    # A family states its group law once: it overrides exactly one of
    # _normalize and _product, and each default derives from the other.

    def _normalize(self, syllables: Syllables) -> Syllables:
        """Normal form of raw syllables: the product of its halves' normal forms.

        One nonzero syllable is already a normal form in every family here.
        Splitting in halves keeps the cost at n log n for a junction product.
        """
        if len(syllables) > 1:
            h = len(syllables) // 2
            return self._product(self._normalize(syllables[:h]),
                                 self._normalize(syllables[h:]))
        if syllables and syllables[0][1]:
            g, e = syllables[0]
            return ((g, e),)
        return ()

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

    def _inverse(self, syllables: Syllables) -> Syllables:
        # reversed, a normal form stays one only under a free law
        rev = tuple((g, -e) for g, e in reversed(syllables))
        return rev if self._free_law else self._normalize(rev)

    def inv(self, u: Word) -> Word:
        return Word(self, self._inverse(self._nf(u)), True)

    def conj(self, g: Word, w: Word) -> Word:
        """g w g^-1."""
        return self.mul(self.mul(g, w), self.inv(g))

    def ball_generators(self) -> list[Word]:
        gens = self.gens()
        return gens + [self.inv(g) for g in gens]

    def ball(self, r: int, gens: tuple[Word, ...] | None = None) -> list[Word]:
        """All elements reachable by <= r generator letters, sorted shortlex."""
        return list(self.ball_index(r, gens).words)

    def ball_index(self, r: int,
                   gens: tuple[Word, ...] | None = None) -> BallIndex:
        """The numbered ball B_r on ``gens`` (default: generators and inverses).

        Built once per context and kept on it, outside the dataclass fields,
        so it is neither compared, hashed nor printed and goes with the context.
        """
        balls = vars(self).setdefault("_balls", {})
        key = (r, None if gens is None else tuple(gens))
        index = balls.get(key)
        if index is None:
            index = balls[key] = BallIndex(self, r, gens)
        return index

    def ball_products(self, r: int, gens: tuple[Word, ...] | None = None):
        """Yield the in-ball products ``(u, v, p)`` of ids, one per orbit of abc = 1.

        Ids are those of ``ball_index(r, gens)``, and
        ``domain[u] * domain[v] == domain[p]``, where ``u`` is the least of
        u, v, p and their inverses: abc = 1, its rotations and their mirrors
        (c^-1, b^-1, a^-1) give six products ``a b = c^-1``, and the least
        element heads one of them, or two when the orbit repeats an element.
        Triples come in ascending ``(u, v)`` order, one ``u`` row at a time,
        and identity products are left out.

        A free law walks the ball when ``gens`` is None (``_walk_products``);
        else every pair goes through ``_product``.  Both read the inverse
        ids, so ``gens`` must be symmetric.
        """
        if gens is None and self._free_law:
            yield from self._walk_products(r)
            return
        index = self.ball_index(r, gens)
        syls = [w.syllables for w in index.domain]
        get, product = index.ids.get, self._product
        # u heads its inverse pair, and the pairs of v and p start at u or later
        inv = index.inv
        for u, su in enumerate(syls):
            if inv[u] < u:
                continue
            for v in range(u, len(syls)):
                if inv[v] >= u:
                    p = get(product(su, syls[v]))
                    if p is not None and u <= p and u <= inv[p]:
                        yield u, v, p

    def _walk_products(self, r):
        """In-ball products walked directly: every candidate tried is in the ball.

        Write u = u'x and v = x^-1 y with no cancellation in u'y, so uv = u'y.
        For each cancellation length |x|, y runs over the reduced words that
        extend both x^-1 and u' inside the ball.  Past its first letter, y
        extends two words that end in the same letter, and the ball words
        below each of them list the same y's in shortlex order, so zipping
        the two lists walks both at once and stops at the shorter (Epstein
        et al., *Word Processing in Groups*, 1992, ch. 2-3).
        """
        index = self.ball_index(r)
        ball = index.words      # node i is ball[i], id i - 1; node 0 is 1
        # one int object per id, shared by every triple: the census search
        # reads them in its innermost loop
        ids = list(range(len(ball) - 1))
        # letter 2g is g, 2g + 1 is g^-1; child[i][l] is the node of
        # ball[i] * l when that is reduced and in the ball, else 0; below[i]
        # lists the ids of the ball words that start with ball[i], in order
        child = [[0] * (2 * len(self.gen_names)) for _ in ball]
        parent, last = [0] * len(ball), [0] * len(ball)
        below: list[list[int]] = [[] for _ in ball]
        for i, w in enumerate(ball[1:], 1):
            g, e = w.syllables[-1]   # the parent is w with its last letter cancelled
            head = self._product(w.syllables, ((g, -1 if e > 0 else 1),))
            parent[i], last[i] = index.ids.get(head, -1) + 1, 2 * g + (e < 0)
            child[parent[i]][last[i]] = i
            j = i
            while j:
                below[j].append(ids[i - 1])
                j = parent[j]
        rep = [min(i, j) for i, j in enumerate(index.inv)]   # least id of its pair
        for u in ids:
            if rep[u] < u:
                continue
            row = []
            xinv, head = 0, u + 1   # x^-1 and u' for |x| = 0, 1, ..., |u|
            while True:
                if xinv and head:
                    row.append((ids[xinv - 1], ids[head - 1]))
                for a, b in zip(child[xinv], child[head]):
                    if a and b:
                        row.extend(zip(below[a], below[b]))
                if not head:
                    break
                xinv = child[xinv][last[head] ^ 1]
                head = parent[head]
            row = [(v, p) for v, p in row if u <= rep[v] and u <= rep[p]]
            row.sort()
            for v, p in row:
                yield u, v, p

    def __repr__(self) -> str:
        return f"<{self.descriptor()['family']} on {','.join(self.gen_names)}>"


# -- free groups ----------------------------------------------------------

@dataclass(frozen=True, repr=False)
class FreeCtx(GroupCtx):
    rank: int
    gen_names: tuple[str, ...] = ()
    _free_law = True

    def __post_init__(self):
        if not self.gen_names:
            names = tuple("abcdefgh"[i] for i in range(self.rank))
            object.__setattr__(self, "gen_names", names)

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
        object.__setattr__(self, "_free_law", self.rank <= 1)

    def _product(self, a, b):
        # merge two generator-sorted normal forms: exponent vectors add
        out, i, j = [], 0, 0
        while i < len(a) and j < len(b):
            (g, e), (h, f) = a[i], b[j]
            if g == h:
                if e + f:
                    out.append((g, e + f))
                i, j = i + 1, j + 1
            elif g < h:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        return tuple(out) + a[i:] + b[j:]

    def _inverse(self, syllables):
        return tuple((g, -e) for g, e in syllables)

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
        names, offsets, factor = [], [], []
        for i, f in enumerate(self.factors):
            offsets.append(len(names))
            names.extend(f.gen_names)
            factor.extend([i] * len(f.gen_names))
        if len(set(names)) != len(names):
            raise MalformedWordError("factor generator names collide")
        object.__setattr__(self, "gen_names", tuple(names))
        object.__setattr__(self, "offsets", tuple(offsets))
        # generator id -> factor, a derived table outside the dataclass fields
        object.__setattr__(self, "_factor", tuple(factor))
        # a free product of free-law factors has the free law too
        object.__setattr__(self, "_free_law", self.family == "free_product"
                           and all(f._free_law for f in self.factors))

    def factor_of(self, g: int) -> int:
        if not 0 <= g < len(self._factor):
            raise MalformedWordError(f"generator id {g} out of range")
        return self._factor[g]

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
        keep = [s for s in w.syllables if self._factor[s[0]] == i]
        return Word(self.factors[i],
                    self.factors[i]._normalize(self._local(i, keep)), True)

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

    def _product(self, a, b):
        # merge the last factor run of a[:i] with the first of b[j:]; when
        # they cancel to nothing, the next pair of runs meets
        if self._free_law:   # the one rule on letters, as in FreeCtx
            return FreeCtx._product(self, a, b)
        factor_of = self._factor   # indexed: a and b are normal forms
        i, j, n = len(a), 0, len(b)
        while i and j < n:
            f = factor_of[a[i - 1][0]]
            if factor_of[b[j][0]] != f:
                break
            s, t = i - 1, j + 1
            while s and factor_of[a[s - 1][0]] == f:
                s -= 1
            while t < n and factor_of[b[t][0]] == f:
                t += 1
            merged = self.factors[f]._product(self._local(f, a[s:i]),
                                              self._local(f, b[j:t]))
            if merged:
                return a[:s] + self._global(f, merged) + b[t:]
            i, j = s, t
        return a[:i] + b[j:]


class DirectProductCtx(_ProductCtx):
    family = "direct_product"

    def _normalize(self, syllables):
        per = [[] for _ in self.factors]
        for s in syllables:
            per[self._factor[s[0]]].append(s)
        out = ()
        for i, f in enumerate(self.factors):
            out += self._global(i, f._normalize(self._local(i, per[i])))
        return out


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
        # A^k for |k| <= 64 once its growth check passed, kept as ball_index keeps balls
        powers = vars(self).setdefault("_powers", {})
        for g, e in syllables:
            if g == self.T:
                k += e
            elif g in (self.A1, self.A2):
                if at != k:  # A^k itself, so the power cap sees the exponent
                    m, at = powers.get(k) or self.matrix.power(k), k
                    if -64 <= k <= 64:
                        powers[k] = m
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
    if len(dp.factors) != 2 or type(kernel_factor) is not int or kernel_factor not in (0, 1):
        raise MalformedWordError("SES needs a two-factor product and kernel factor 0 or 1")
    kf, qf = kernel_factor, 1 - kernel_factor
    kernel, quotient = dp.factors[kf], dp.factors[qf]

    def kernel_pull(g):
        if not dp.factor_word(qf, g).is_identity():
            raise BrokenSESError(f"{g!r} is not a kernel element")
        return dp.factor_word(kf, g)

    return ShortExactSeq(kernel, dp, quotient,
                         lambda k: dp.embed_factor(kf, k),   # inject
                         lambda g: dp.factor_word(qf, g),    # project
                         lambda h: dp.embed_factor(qf, h),   # section
                         kernel_pull, descriptor=("direct_product", kernel_factor))


def semidirect_ses(sd: SemidirectCtx) -> ShortExactSeq:
    """1 -> Z^2 -> Z^2 x| Z -> Z -> 1 with section t^k."""
    kernel = ZPowCtx(2, (sd.gen_names[0], sd.gen_names[1]))
    quotient = ZPowCtx(1, (sd.gen_names[2],))

    def kernel_pull(g):
        v, k = sd.parts(g)
        if k != 0:
            raise BrokenSESError(f"{g!r} is not a kernel element")
        return kernel.from_vector(v)

    return ShortExactSeq(kernel, sd, quotient,
                         lambda k: sd.from_parts(kernel.vector(k), 0),           # inject
                         lambda g: quotient.from_vector((sd.parts(g)[1],)),      # project
                         lambda h: sd.from_parts((0, 0), quotient.vector(h)[0]),  # section
                         kernel_pull, descriptor=("semidirect",))

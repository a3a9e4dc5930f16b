"""Exact arithmetic over quadratic extensions (p + q*sqrt(d))/r.

Values are kept in a canonical integer form so that equality is structural
and comparisons never touch floating point.  Only a single radicand per
comparison is supported; that is enough for every construction in this
package and keeps sign analysis a matter of integer squaring.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

from .errors import (
    InvalidSlopeError, PoleError, ResourceLimitError, UnsupportedComparisonError,
)

LT, EQ, GT = -1, 0, 1

# Fixed bit caps of Mat2.check_growth: POWER_BITS_CAP for a matrix power, and
# the lower LIFT_BITS_CAP for a dynamical cone's lift g^e, since a sign
# evaluates a surd point under the lift.  Each admits powers that take about
# a second as a whole CLI process.
POWER_BITS_CAP = 1 << 21
LIFT_BITS_CAP = 1 << 17


def repeated_squaring(x, k: int, mul, one):
    """x^k, k >= 0, under ``mul`` with identity ``one``, reading k's bits from the top."""
    out = mul(one, x) if k else one
    for bit in bin(k)[3:]:  # each product that is not a squaring has x as a factor
        out = mul(out, out)
        if bit == "1":
            out = mul(out, x)
    return out


def _squarefree(d: int) -> tuple[int, int]:
    """Split d = s^2 * d0 with d0 squarefree; returns (s, d0)."""
    if d < 0:
        raise ValueError("radicand must be nonnegative")
    s, d0, p = 1, d, 2
    while p * p <= d0:
        while d0 % (p * p) == 0:
            d0 //= p * p
            s *= p
        p += 1 if p == 2 else 2
    return s, d0


def sign_int_surd(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for squarefree d >= 2."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: |a| vs |b| sqrt(d), square both sides
    if a * a == b * b * d:
        return 0  # impossible for squarefree d >= 2, kept for safety
    big_rational = a * a > b * b * d
    return (1 if big_rational else -1) if a > 0 else (-1 if big_rational else 1)


@dataclass(frozen=True)
class QuadNum:
    """(p + q*sqrt(d)) / r in canonical form.

    Canonical: r > 0, gcd(p, q, r) = 1, d squarefree, and q = 0 forces d = 0
    (rationals carry no radicand).  Use :func:`quad` to build values; the raw
    constructor trusts its arguments.
    """

    p: int
    q: int
    r: int
    d: int

    def is_rational(self) -> bool:
        return self.q == 0

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def sign(self) -> int:
        if self.q == 0:
            return (self.p > 0) - (self.p < 0)
        return sign_int_surd(self.p, self.q, self.d)

    def __neg__(self) -> "QuadNum":
        return QuadNum(-self.p, -self.q, self.r, self.d)

    def __add__(self, other: "QuadNum") -> "QuadNum":
        d = _common_radicand(self, other)
        return quad(self.p * other.r + other.p * self.r,
                    self.q * other.r + other.q * self.r,
                    self.r * other.r, d)

    def __sub__(self, other: "QuadNum") -> "QuadNum":
        return self + (-other)

    def __mul__(self, other: "QuadNum") -> "QuadNum":
        d = _common_radicand(self, other)
        # (p1 + q1 s)(p2 + q2 s) = p1 p2 + q1 q2 d + (p1 q2 + q1 p2) s
        return quad(self.p * other.p + self.q * other.q * d,
                    self.p * other.q + self.q * other.p,
                    self.r * other.r, d)

    def inverse(self) -> "QuadNum":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # r / (p + q s) = r (p - q s) / (p^2 - q^2 d)
        norm = self.p * self.p - self.q * self.q * self.d
        return quad(self.r * self.p, -self.r * self.q, norm, self.d)

    def __truediv__(self, other: "QuadNum") -> "QuadNum":
        return self * other.inverse()

    def scaled(self, k: int) -> "QuadNum":
        return quad(self.p * k, self.q * k, self.r, self.d)

    __rmul__ = scaled  # k * x for an integer k

    def __repr__(self) -> str:
        if self.q == 0:
            return f"{self.p}/{self.r}" if self.r != 1 else str(self.p)
        body = f"{self.p}{'+' if self.q >= 0 else '-'}{abs(self.q)}*sqrt({self.d})"
        return f"({body})/{self.r}" if self.r != 1 else f"({body})"


def quad(p: int, q: int, r: int = 1, d: int = 0) -> QuadNum:
    """Build a QuadNum in canonical form."""
    if r == 0:
        raise ZeroDivisionError("zero denominator")
    if q != 0:
        s, d0 = _squarefree(d)
        q, d = q * s, d0
    if d in (0, 1):
        p, q, d = p + q * (1 if d == 1 else 0), 0, 0
    if q == 0:
        d = 0
    if r < 0:
        p, q, r = -p, -q, -r
    g = gcd(gcd(abs(p), abs(q)), r)
    if g > 1:
        p, q, r = p // g, q // g, r // g
    return QuadNum(p, q, r, d)


def rational(p: int, r: int = 1) -> QuadNum:
    return quad(p, 0, r, 0)


def sqrt_of(d: int) -> QuadNum:
    s, d0 = _squarefree(d)
    if d0 in (0, 1):
        return rational(s if d0 == 1 else 0)
    return quad(0, s, 1, d0)


def _common_radicand(x: QuadNum, y: QuadNum) -> int:
    if x.q == 0:
        return y.d
    if y.q == 0:
        return x.d
    if x.d != y.d:
        raise UnsupportedComparisonError(
            f"mixed radicands sqrt({x.d}) and sqrt({y.d})")
    return x.d


def quad_cmp(x: QuadNum, y: QuadNum) -> int:
    """Exact total-order comparison; returns LT, EQ or GT."""
    d = _common_radicand(x, y)
    return cmp_triples((x.p, x.q, x.r, d), (y.p, y.q, y.r, d))


class Mat2(NamedTuple):
    """Integer 2x2 matrix, the row-major tuple (a, b, c, d); groups need det = +-1."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "Mat2") -> "Mat2":
        a, b, c, d = self
        e, f, g, h = other
        return Mat2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def inverse(self) -> "Mat2":
        det = self.det()
        if det == 1:
            return Mat2(self.d, -self.b, -self.c, self.a)
        if det == -1:
            return Mat2(-self.d, self.b, self.c, -self.a)
        raise ValueError(f"matrix with det {det} is not invertible over Z")

    def check_growth(self, k: int, cap: int) -> None:
        """Refuse M^k, k >= 0, before any work when its entries may pass ``cap`` bits.

        Entries of M^k are at most n^k, n the largest absolute row sum of M.
        When M has an eigenvalue off the closed unit disc they grow
        exponentially, and ResourceLimitError is raised if k * bit_length(n)
        exceeds ``cap``.  Other matrices grow polynomially and are not capped.
        """
        a, b, c, d = self
        t, det = a + d, a * d - b * c
        # x^2 - t x + det has a root of modulus > 1 (for |det| <= 1: |t| > det + 1)
        if abs(det) > 1 or abs(t) > det + 1:
            n = max(abs(a) + abs(b), abs(c) + abs(d))
            if k * n.bit_length() > cap:
                raise ResourceLimitError(
                    f"power {k} of {self.rows()} may pass {cap} bits")

    def power(self, k: int) -> "Mat2":
        """M^k, refused past ``POWER_BITS_CAP`` bits (M^-1 checked for k < 0)."""
        m = self if k >= 0 else self.inverse()
        m.check_growth(abs(k), POWER_BITS_CAP)
        return repeated_squaring(m, abs(k), Mat2.__matmul__, MAT_IDENTITY)

    def apply_vec(self, v: tuple[int, int]) -> tuple[int, int]:
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

    def rows(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]


MAT_IDENTITY = Mat2(1, 0, 0, 1)


def mat2(rows) -> Mat2:
    (a, b), (c, d) = rows
    return Mat2(a, b, c, d)


# The Mobius/surd kernel works on integer tuples: (p, q, r, d) for
# (p + q*sqrt(d))/r with r > 0, and a Mat2 for a matrix.  The dynamical
# cone calls it directly; quad_cmp and mobius_apply are its QuadNum front-ends.

def cmp_triples(t1, t2) -> int:
    """Exact comparison of two tuples over the radicand of the first."""
    p1, q1, r1, d = t1
    p2, q2, r2, _ = t2
    # t1 - t2 = ((p1 r2 - p2 r1) + (q1 r2 - q2 r1) sqrt(d)) / (r1 r2), r's > 0
    a = p1 * r2 - p2 * r1
    b = q1 * r2 - q2 * r1
    if b == 0:
        return (a > 0) - (a < 0)
    return sign_int_surd(a, b, d)


def cover_image(mat: Mat2, t, n: int = 0):
    """Image of the cover point (x, n) under the crossing lift of a Mobius map.

    Points of the universal cover of the projective line are pairs (x, n)
    ordered sheet first; the lift sends (x, n) to ((a x + b) / (c x + d),
    n + 1) when x lies above the pole -d/c, and to the same image on sheet n
    otherwise.  The image comes back unreduced, over a positive denominator
    and x's radicand, so it compares exactly by ``cmp_triples``.  x lies
    above the pole iff c x + d has the sign of c, and that sign falls out of
    the norm that rationalizes the denominator, so the crossing costs no
    extra multiplication.  Raises PoleError when x is the pole.
    """
    a, b, c, dd = mat
    p, q, r, d = t
    # numerator (a p + b r) + a q s over r; denominator (c p + d r) + c q s
    # over r; multiply both by the conjugate of the denominator
    np_, nq = a * p + b * r, a * q
    dp, dq = c * p + dd * r, c * q
    denom = dp * dp - dq * dq * d
    if denom == 0:
        raise PoleError(f"Mobius map {mat} has a pole at {t}")
    # c x + d has the sign of dp when |dp| > |dq| sqrt(d), else that of dq
    if c and ((dp if denom > 0 else dq) > 0) == (c > 0):
        n += 1
    pp = np_ * dp - nq * dq * d
    qq = nq * dp - np_ * dq
    if denom < 0:
        pp, qq, denom = -pp, -qq, -denom
    return (pp, qq, denom, d), n


def mobius_cover(mat: Mat2, t, n: int = 0):
    """``cover_image`` with the image gcd-reduced, for points that are kept."""
    (pp, qq, denom, d), n = cover_image(mat, t, n)
    g = gcd(gcd(abs(pp), abs(qq)), denom)
    if g > 1:
        pp, qq, denom = pp // g, qq // g, denom // g
    return (pp, qq, denom, d), n


def mobius_apply(m: Mat2, x: QuadNum) -> QuadNum:
    """Exact Mobius image (a x + b) / (c x + d), rationalized to canonical form."""
    (p, q, r, d), _ = mobius_cover(m, (x.p, x.q, x.r, x.d))
    return quad(p, q, r, d)


def primitive_vec(v: tuple[int, int]) -> tuple[int, int]:
    """Primitive integer vector with canonical sign (first nonzero > 0)."""
    a1, a2 = v
    if a1 == 0 and a2 == 0:
        raise InvalidSlopeError("zero vector has no direction")
    g = gcd(abs(a1), abs(a2))
    a1, a2 = a1 // g, a2 // g
    if a1 < 0 or (a1 == 0 and a2 < 0):
        a1, a2 = -a1, -a2
    return a1, a2

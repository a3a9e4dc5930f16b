"""Exact arithmetic over quadratic extensions (p + q*sqrt(d))/r.

Values are kept in a canonical integer form so that equality is structural
and comparisons never touch floating point.  Only a single radicand per
comparison is supported; that is enough for every construction in this
package and keeps sign analysis a matter of integer squaring.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InvalidSlopeError, PoleError, UnsupportedComparisonError

LT, EQ, GT = -1, 0, 1


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


@dataclass(frozen=True)
class Mat2:
    """Integer 2x2 matrix, row-major; group usage requires det = +-1."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a * other.a + self.b * other.c,
                    self.a * other.b + self.b * other.d,
                    self.c * other.a + self.d * other.c,
                    self.c * other.b + self.d * other.d)

    def inverse(self) -> "Mat2":
        det = self.det()
        if det == 1:
            return Mat2(self.d, -self.b, -self.c, self.a)
        if det == -1:
            return Mat2(-self.d, self.b, self.c, -self.a)
        raise ValueError(f"matrix with det {det} is not invertible over Z")

    def power(self, k: int) -> "Mat2":
        m = self if k >= 0 else self.inverse()
        out = MAT_IDENTITY
        k = abs(k)
        while k:  # repeated squaring
            if k & 1:
                out = out @ m
            k >>= 1
            if k:
                m = m @ m
        return out

    def apply_vec(self, v: tuple[int, int]) -> tuple[int, int]:
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

    def transpose(self) -> "Mat2":
        return Mat2(self.a, self.c, self.b, self.d)

    def rows(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]


MAT_IDENTITY = Mat2(1, 0, 0, 1)


def mat2(rows) -> Mat2:
    (a, b), (c, d) = rows
    return Mat2(a, b, c, d)


# The Mobius/surd kernel works on integer tuples: (p, q, r, d) for
# (p + q*sqrt(d))/r with r > 0, and (a, b, c, d) for a matrix.  The dynamical
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


def mobius_triple(mat, t):
    """Mobius image (a x + b) / (c x + d) as a gcd-reduced tuple.

    The denominator comes back 0 exactly when x is the pole of the map.
    """
    a, b, c, dd = mat
    p, q, r, d = t
    # numerator (a p + b r) + a q s over r; denominator (c p + d r) + c q s
    # over r; multiply both by the conjugate of the denominator
    np_, nq = a * p + b * r, a * q
    dp, dq = c * p + dd * r, c * q
    denom = dp * dp - dq * dq * d
    pp = np_ * dp - nq * dq * d
    qq = nq * dp - np_ * dq
    if denom < 0:
        pp, qq, denom = -pp, -qq, -denom
    g = gcd(gcd(abs(pp), abs(qq)), denom)
    if g > 1:
        pp, qq, denom = pp // g, qq // g, denom // g
    return (pp, qq, denom, d)


def mobius_apply(m: Mat2, x: QuadNum) -> QuadNum:
    """Exact Mobius image (a x + b) / (c x + d), rationalized to canonical form."""
    p, q, r, d = mobius_triple((m.a, m.b, m.c, m.d), (x.p, x.q, x.r, x.d))
    if r == 0:
        raise PoleError(f"{m} has a pole at {x}")
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

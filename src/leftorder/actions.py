"""Equality, orbits and equivariance for the conjugation action on cones.

The action itself, ``conj_cone`` with ``kernel_conj_cone`` and ``diag_conj``
for extensions, lives in cones.py beside the classes it builds and is
re-exported here.  Equality is exact on canonical descriptors; everything
else is compared on balls.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContextMismatchError, OrbitUndecidedError
from .cones import (
    Cone, DynamicalCone, KleinCone, LexCone, QuadSlopeCone, RestrictionCone,
    SlopeCone, ZSignCone, conj_cone, detect_slope, diag_conj, kernel_conj_cone,
    restrict_cone,
)
from .words import ShortExactSeq, Word


# -- equality ------------------------------------------------------------------

_EXACT_TYPES = (SlopeCone, QuadSlopeCone, KleinCone, ZSignCone)


@dataclass(frozen=True)
class EqualityResult:
    verdict: str  # "equal" | "distinct" | "unknown"
    witness: Word | None = None
    radius: int | None = None


def _exact_comparable(c: Cone) -> bool:
    if isinstance(c, _EXACT_TYPES):
        return True
    if isinstance(c, LexCone):
        return (_exact_comparable(c.kernel_cone)
                and _exact_comparable(c.quotient_cone))
    return False


def _distinct_witness(c1: Cone, c2: Cone) -> Word | None:
    """Some word the two (structurally distinct) canonical cones sign apart."""
    if isinstance(c1, SlopeCone) and isinstance(c2, SlopeCone):
        d1 = c1.slope().vec
        d2 = c2.slope().vec
        cands = [d1, d2, tuple(x + y for x, y in zip(d1, d2)),
                 tuple(x - y for x, y in zip(d1, d2))]
        for v in cands:
            for w in (v, tuple(-x for x in v)):
                if w == (0, 0):
                    continue
                word = c1.ctx.from_vector(w)
                if c1.sign(word) != c2.sign(word):
                    return word
        return None
    if isinstance(c1, LexCone) and isinstance(c2, LexCone) and c1.ses == c2.ses:
        kw = _first_ball_difference(c1.kernel_cone, c2.kernel_cone, 2)
        kw = kw or _distinct_witness(c1.kernel_cone, c2.kernel_cone)
        if kw is not None:
            return c1.ses.inject(kw)
        qw = _first_ball_difference(c1.quotient_cone, c2.quotient_cone, 2)
        qw = qw or _distinct_witness(c1.quotient_cone, c2.quotient_cone)
        if qw is not None:
            return c1.ses.section(qw)
        return None
    return _first_ball_difference(c1, c2, 4)


def _first_ball_difference(c1: Cone, c2: Cone, r: int) -> Word | None:
    for w in c1.ctx.ball(r):
        if not w.is_identity() and c1.sign(w) != c2.sign(w):
            return w
    return None


def cone_equal(c1: Cone, c2: Cone, strategy: str = "exact",
               radius: int = 4) -> EqualityResult:
    """Decide cone equality.

    "exact" decides canonical descriptors (slope, Klein, Z-sign and lex
    cones built from them) and answers equal for equal dynamical descriptors;
    "ball" compares signs on B_radius and answers unknown when descriptors
    are not canonically comparable.
    """
    if c1.ctx != c2.ctx:
        raise ContextMismatchError("cones live on different contexts")
    if strategy == "exact":
        s1, s2 = c1.simplified(), c2.simplified()
        exact = _exact_comparable(s1) and _exact_comparable(s2)
        # distinct basepoints can still give one order, so only == decides
        if s1 == s2 and (exact or isinstance(s1, DynamicalCone)):
            return EqualityResult("equal")
        w = _distinct_witness(s1, s2) if exact else None
        if w is None:  # no "distinct" without a word that shows it
            return EqualityResult("unknown", radius=0)
        return EqualityResult("distinct", witness=w)
    if strategy == "ball":
        w = _first_ball_difference(c1, c2, radius)
        if w is not None:
            return EqualityResult("distinct", witness=w, radius=radius)
        if c1.simplified() == c2.simplified():
            return EqualityResult("equal", radius=radius)
        return EqualityResult("unknown", radius=radius)
    raise ValueError(f"unknown strategy {strategy!r}")


# -- orbits -------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitReport:
    representatives: tuple[Cone, ...]
    size: object                   # int or "exceeded-bound"
    strategy: str
    radius: int | None
    conjugators: tuple[Word, ...]
    witnesses: tuple = ()          # (i, j, word) certifying rep i != rep j


def orbit(c: Cone, conjugators, strategy: str = "exact", radius: int = 4,
          max_size: int = 64) -> OrbitReport:
    """Breadth-first closure of {c} under conjugation, modulo cone_equal."""
    ctx = c.ctx
    gens = []
    for g in conjugators:
        g = ctx.normalize(g)
        for h in (g, ctx.inv(g)):
            if h not in gens and not h.is_identity():
                gens.append(h)
    reps: list[Cone] = [c]
    frontier = [c]
    witnesses = []
    while frontier:
        nxt = []
        for rep in frontier:
            for g in gens:
                cand = conj_cone(rep, g)
                seen = False
                found = []
                for j, known in enumerate(reps):
                    res = cone_equal(cand, known, strategy, radius)
                    if res.verdict == "equal":
                        seen = True
                        break
                    if res.verdict == "unknown":
                        raise OrbitUndecidedError(
                            "cone equality undecided during orbit closure",
                            partial=OrbitReport(tuple(reps), "undecided",
                                                strategy, radius, tuple(gens),
                                                tuple(witnesses)))
                    found.append((len(reps), j, res.witness))
                if seen:
                    continue
                reps.append(cand)
                witnesses.extend(found)
                nxt.append(cand)
                if len(reps) > max_size:
                    return OrbitReport(tuple(reps[:max_size]), "exceeded-bound",
                                       strategy, radius, tuple(gens),
                                       tuple(witnesses))
        frontier = nxt
    return OrbitReport(tuple(reps), len(reps), strategy, radius, tuple(gens),
                       tuple(witnesses))


# -- equivariant maps ------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantConeMap:
    """theta(P) = value for every P."""

    value: Cone

    def apply(self, cone: Cone) -> Cone:
        return self.value


@dataclass(frozen=True)
class EquivarianceReport:
    ok: bool
    witness: dict | None = None    # {conjugator, sample (index), word}
    radius: int = 0


def equivariance_check(theta, ses: ShortExactSeq, samples, r: int = 4,
                       direction: str = "kernel_to_quotient") -> EquivarianceReport:
    """Check theta(g . P) agrees with g . theta(P) on B_r for each sample.

    With the default direction theta maps kernel cones to quotient cones and
    samples are (g, kernel cone) pairs, g in the total group; the reverse
    direction swaps the two actions.
    """
    if direction not in ("kernel_to_quotient", "quotient_to_kernel"):
        raise ValueError(f"unknown direction {direction!r}")
    for idx, (g, cone) in enumerate(samples):
        if direction == "kernel_to_quotient":
            left = theta.apply(kernel_conj_cone(ses, cone, g))
            right = conj_cone(theta.apply(cone), ses.project(g))
        else:
            left = theta.apply(conj_cone(cone, ses.project(g)))
            right = kernel_conj_cone(ses, theta.apply(cone), g)
        res = cone_equal(left, right, "ball", r)
        if res.verdict == "distinct":
            return EquivarianceReport(
                False, {"conjugator": g, "sample": idx, "word": res.witness}, r)
    return EquivarianceReport(True, None, r)


# -- restricted orbit sampling -----------------------------------------------------------

@dataclass(frozen=True)
class RestrictedSample:
    conjugator: Word
    cone: RestrictionCone
    verified: bool                # simplified descriptor agreed on the ball
    detection: object             # DetectResult


def restricted_orbit_sample(c: Cone, embedding, conjugators, k: int,
                            detect_radius: int = 8) -> list[RestrictedSample]:
    """Distinct restrictions of conjugates of c along words over the conjugators.

    Each restriction that simplifies to a classified descriptor is verified
    against the unsimplified oracle on B_4 before its slope is
    reported; deduplication uses the exact slope and variant when available,
    otherwise the scanned sector.
    """
    ctx = c.ctx
    words = ctx.ball(k, gens=tuple(ctx.normalize(g) for g in conjugators))
    out: list[RestrictedSample] = []
    seen = set()
    for g in words:
        rc = restrict_cone(conj_cone(c, g), embedding)
        simp = rc.simplified()
        verified = True
        if simp is not rc and simp != rc:
            verified = _first_ball_difference(rc, simp, 4) is None
        target = simp if verified else rc
        det = detect_slope(target, detect_radius)
        if det.exact:
            key = ("exact", det.slope, det.variant)
        else:
            key = ("sector", det.sector)
        if key in seen:
            continue
        seen.add(key)
        out.append(RestrictedSample(g, rc, verified, det))
    return out

"""Brute-force enumeration of ball-consistent partial cones.

A ball cone is a sign assignment on the nonidentity elements of a word ball
satisfying antisymmetry and positive closure for every in-ball triple: no
three elements a, b, c with abc = 1 share one sign.  The enumerator
backtracks over elements in shortlex order with unit propagation (w^-1 takes
the other sign of w; two equal signs in a clause force the third to the
other), so its output is the complete, deterministic list of locally
consistent assignments, the oracle the classified families are checked against.

The search runs on the context's ``ball_index``: the ball's elements
numbered ``0..n-1`` in shortlex order and their inverses as ints.  A
variable is an inverse pair, and one clause per orbit of ``ball_products``
is built per search and freed with it.  Signs live in an int list;
propagation appends to a trail, and backtracking undoes the trail to the
mark taken at the decision (as in MiniSat), with an explicit stack.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .errors import ResourceLimitError
from .words import GroupCtx, Word

CENSUS_DOMAIN_CAP = 2000


@dataclass(frozen=True)
class BallCone:
    """Finite sign assignment on B_r minus the identity."""

    ctx: GroupCtx
    radius: int
    domain: tuple[Word, ...]          # shortlex order, identity excluded
    signs: tuple[int, ...]            # aligned with domain, each +1 or -1
    # serial items of the domain, ``_serial_items(domain)``; the cones of one
    # search share them, so each item is built and written once per run
    items: tuple | None = field(default=None, compare=False, repr=False)

    def serial(self) -> list:
        """``[[pairs, sign], ...]``; the items are shared, not to be mutated."""
        items = self.items or _serial_items(self.domain)
        return [item[s < 0] for item, s in zip(items, self.signs)]


def _serial_items(domain: tuple[Word, ...]) -> tuple:
    """Per domain word, its serial items ``([pairs, 1], [pairs, -1])``."""
    out = []
    for w in domain:
        pairs = w.pairs()
        out.append(([pairs, 1], [pairs, -1]))
    return tuple(out)


class _Search:
    """Shared propagation engine for enumeration and extension checking.

    ``index`` is the context's numbered B_r.  ``sign[i]`` is +1, -1 or 0
    (unassigned) and ``sign[inv[i]]`` is ``-sign[i]``.  A clause ``(a, b, c)``
    with abc = 1, from the product ``a b = c^-1``, stands for the six products
    of its orbit; ``by_id[i]``, one list with ``by_id[inv[i]]``, holds the
    clauses that meet the pair.  ``trail`` lists one id per assigned pair in
    assignment order and doubles as the propagation queue.
    """

    def __init__(self, ctx: GroupCtx, r: int, gens=None,
                 cap: int = CENSUS_DOMAIN_CAP):
        index = ctx.ball_index(r, gens)
        if len(index.domain) > cap:
            raise ResourceLimitError(
                f"census domain has {len(index.domain)} elements, cap is {cap}")
        inv = index.inv
        # w = w^-1 takes no sign: its list starts with a clause that fails
        own = [[(i, i, i)] if i == j else [] for i, j in enumerate(inv)]
        by_id = [own[min(i, j)] for i, j in enumerate(inv)]
        for u, v, p in ctx.ball_products(r, gens):
            t = (u, v, inv[p])
            a, b, c = by_id[u], by_id[v], by_id[p]
            a.append(t)
            if b is not a:
                b.append(t)
            if c is not a and c is not b:
                c.append(t)
        self.index, self.by_id = index, by_id
        self.sign = [0] * len(index.domain)
        self.trail: list[int] = []

    def undo(self, mark: int) -> None:
        """Unassign everything assigned after the trail had length ``mark``."""
        sign, trail, inv = self.sign, self.trail, self.index.inv
        for i in trail[mark:]:
            sign[i] = sign[inv[i]] = 0
        del trail[mark:]

    def assign(self, w: int, s: int) -> bool:
        """Assign and propagate; False on conflict (the caller undoes)."""
        sign, trail = self.sign, self.trail
        if sign[w]:
            return sign[w] == s
        inv, by_id = self.index.inv, self.by_id
        head = len(trail)
        sign[inv[w]] = -s
        sign[w] = s
        trail.append(w)
        while head < len(trail):
            for a, b, c in by_id[trail[head]]:
                # a sum of +-2 is two equal signs s and an unassigned third,
                # which takes -s; a sum of +-3 is three equal signs
                t = sign[a] + sign[b] + sign[c]
                if -2 < t < 2:
                    continue
                if t == 3 or t == -3:
                    return False
                w = c if not sign[c] else b if not sign[b] else a
                s = t >> 1
                sign[inv[w]] = s
                sign[w] = -s
                trail.append(w)
            head += 1
        return True

    def run(self, collect=None) -> bool:
        """DFS in shortlex variable order, + branch first.

        With ``collect`` set, appends every completion to it as a tuple of
        signs; otherwise stops at the first.  Returns whether one exists.
        """
        sign, trail = self.sign, self.trail
        n = len(sign)
        stack: list[tuple[int, int]] = []   # decisions whose - branch is open
        found = False
        i = 0
        while True:
            while i < n and sign[i]:
                i += 1
            if i == n:
                if collect is None:
                    return True
                collect.append(tuple(sign))
                found = True
            else:
                stack.append((i, len(trail)))
                if self.assign(i, 1):
                    continue
            while stack:
                i, mark = stack.pop()
                self.undo(mark)
                if self.assign(i, -1):
                    break
            else:
                return found


def enumerate_ball_cones(ctx: GroupCtx, r: int, gens=None,
                         cap: int = CENSUS_DOMAIN_CAP) -> list[BallCone]:
    """All ball cones on B_r in canonical order (+ before - at the first sign
    that differs), which is the order in which the DFS finds them."""
    search = _Search(ctx, r, gens, cap)
    found: list[tuple[int, ...]] = []
    search.run(collect=found)
    domain = search.index.domain
    items = _serial_items(domain)
    return [BallCone(ctx, r, domain, signs, items) for signs in found]


def extendable_filter(cones: list[BallCone], target_radius: int, gens=None,
                      cap: int = CENSUS_DOMAIN_CAP) -> list[BallCone]:
    """Keep the ball cones that extend to a consistent assignment on B_target."""
    searches: dict[GroupCtx, _Search] = {}
    out = []
    for cone in cones:
        if target_radius < cone.radius:
            raise ValueError("target radius must not shrink the ball")
        if target_radius == cone.radius:
            out.append(cone)
            continue
        search = searches.get(cone.ctx)
        if search is None:
            search = searches[cone.ctx] = _Search(
                cone.ctx, target_radius, gens, cap)
        search.undo(0)
        ids = search.index.ids
        if (all(search.assign(ids[w.syllables], s)
                for w, s in zip(cone.domain, cone.signs))
                and search.run()):
            out.append(cone)
    return out


def census_digest(cones: list[BallCone]) -> dict:
    """Count plus a hash of the canonical serialization, for regression pinning.

    The payload is ``json.dumps`` of every cone's ``serial()`` with compact
    separators; an item shared by many cones is encoded once.
    """
    serials = [c.serial() for c in cones]   # kept alive, so ids stay unique
    text: dict[int, str] = {}

    def item(x) -> str:
        t = text.get(id(x))
        if t is None:
            t = text[id(x)] = json.dumps(x, separators=(",", ":"))
        return t

    payload = "[" + ",".join("[" + ",".join(map(item, s)) + "]"
                             for s in serials) + "]"
    return {"count": len(cones),
            "sha256": hashlib.sha256(payload.encode()).hexdigest()}


def restriction_ball_cone(cone_sign, ctx: GroupCtx, r: int, gens=None) -> BallCone:
    """Restrict a genuine cone's sign oracle to B_r as a BallCone."""
    domain = ctx.ball_index(r, gens).domain
    return BallCone(ctx, r, domain, tuple(cone_sign(w) for w in domain))

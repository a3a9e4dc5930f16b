"""Brute-force enumeration of ball-consistent partial cones.

A ball cone is a sign assignment on the nonidentity elements of a word ball
satisfying antisymmetry and positive closure for every in-ball triple.  The
enumerator backtracks over elements in shortlex order with unit propagation
(assigning w forces w^-1; a positive pair forces its in-ball product), so its
output is the complete, deterministic list of locally consistent assignments.
It is the independent oracle the classified cone families are checked against.

The search runs on the context's ``ball_index``: the ball's elements
numbered ``0..n-1`` in shortlex order and their inverses as ints.  It adds
the in-ball closure triples from the context's ``ball_products``, built once
per search and freed with it.  Signs live in an int list; propagation
appends to a trail, and backtracking undoes the trail to the mark taken at
the decision (as in MiniSat), with an explicit stack in place of recursion.
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

    ``index`` is the context's numbered B_r and ``by_id[i]`` lists every
    closure triple ``(u, v, p)`` of ids in which ``i`` occurs.  ``sign[i]``
    is +1, -1 or 0 (unassigned); ``trail`` lists assigned ids in assignment
    order and doubles as the propagation queue.
    """

    def __init__(self, ctx: GroupCtx, r: int, gens=None,
                 cap: int = CENSUS_DOMAIN_CAP):
        index = ctx.ball_index(r, gens)
        if len(index.domain) > cap:
            raise ResourceLimitError(
                f"census domain has {len(index.domain)} elements, cap is {cap}")
        by_id: list[list[tuple[int, int, int]]] = [[] for _ in index.domain]
        for t in ctx.ball_products(r, gens):
            u, v, p = t
            by_id[u].append(t)
            if v != u:
                by_id[v].append(t)
            if p != u and p != v:
                by_id[p].append(t)
        self.index, self.by_id = index, by_id
        self.sign = [0] * len(index.domain)
        self.trail: list[int] = []

    def undo(self, mark: int) -> None:
        """Unassign everything assigned after the trail had length ``mark``."""
        sign, trail = self.sign, self.trail
        for i in trail[mark:]:
            sign[i] = 0
        del trail[mark:]

    def assign(self, w: int, s: int) -> bool:
        """Assign and propagate; False on conflict (the caller undoes)."""
        sign, trail = self.sign, self.trail
        if sign[w]:
            return sign[w] == s
        inv, by_id = self.index.inv, self.by_id
        head = len(trail)
        sign[w] = s
        trail.append(w)
        while head < len(trail):
            w = trail[head]
            head += 1
            s = sign[w]
            iw = inv[w]
            si = sign[iw]
            if not si:
                sign[iw] = -s
                trail.append(iw)
            elif si != -s:
                return False
            for u, v, p in by_id[w]:
                su, sv, sp = sign[u], sign[v], sign[p]
                if su == 1 and sv == 1:
                    if not sp:
                        sign[p] = 1
                        trail.append(p)
                    elif sp == -1:
                        return False
                elif su == 1 and sp == -1 and not sv:
                    sign[v] = -1
                    trail.append(v)
                elif sv == 1 and sp == -1 and not su:
                    sign[u] = -1
                    trail.append(u)
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

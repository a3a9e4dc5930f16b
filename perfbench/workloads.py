"""Workload job lists, seeded inputs and the output checks for each job.

A job is one ``leftorder`` CLI invocation.  Every job carries the exit code
it must return and a list of checks on its stdout.  Checks come in two
kinds: a sha256 pin taken from the program at the commit that introduced
the benchmark (``pins.json``), and checks computed here from first
principles, which do not trust the program's own bytes.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import gcd
from pathlib import Path

DEFAULT_SEED = 0
PINS = json.loads((Path(__file__).parent / "pins.json").read_text())

DYNAMICAL = '{"kind":"dynamical"}'
SOL_LEX = ('{"kind":"lex","ses":"sol",'
           '"kernel":{"kind":"slope","a":[1,0],"variant":"++"},'
           '"quotient":{"kind":"zsign","sign":1}}')
QUAD_SLOPE = '{"kind":"quad_slope","a":[[1,0,1,0],[0,1,1,2]],"sign":"+"}'
SLOPE_DIAG = '{"kind":"slope","a":[1,-1],"variant":"++"}'
VARIANTS = ("++", "+-", "-+", "--")


class Job:
    """One CLI invocation plus what its output must satisfy."""

    def __init__(self, name, argv, exit_code=0, checks=(), seeded=False):
        self.name = name
        self.argv = list(argv)
        self.exit_code = exit_code
        self.checks = list(checks)
        self.seeded = seeded

    def pin(self, seed: int):
        """The pinned (exit, sha256) for this job, or None when none applies."""
        if self.seeded and seed != DEFAULT_SEED:
            return None
        return PINS.get(self.name)


# -- seeded inputs ------------------------------------------------------------------

def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([k for k in range(-bound, bound + 1) if k])


def _text(pairs) -> str:
    return " ".join(f"{g}^{e}" for g, e in pairs)


def free_reduce(pairs):
    """Free reduction in Z * Z = F(a, b): merge equal neighbours, drop zeros."""
    out: list[list] = []
    for g, e in pairs:
        if out and out[-1][0] == g:
            out[-1][1] += e
            if out[-1][1] == 0:
                out.pop()
        elif e:
            out.append([g, e])
    return out


def kernel_word(rng: random.Random, count: int):
    """Product of ``count`` conjugated commutators g [a^p, b^q] g^-1."""
    pairs = []
    for _ in range(count):
        first = rng.randrange(2)
        conj = [("ab"[(first + i) % 2], _nonzero(rng, 3))
                for i in range(rng.randint(1, 4))]
        p, q = _nonzero(rng, 4), _nonzero(rng, 4)
        inverse = [(g, -e) for g, e in reversed(conj)]
        pairs += conj + [("a", p), ("b", q), ("a", -p), ("b", -q)] + inverse
    return pairs


def alternating_word(rng: random.Random, syllables: int):
    """``syllables`` syllables alternating a and b, exponents in [-5, 5] minus 0."""
    first = rng.randrange(2)
    return [("ab"[(first + i) % 2], _nonzero(rng, 5)) for i in range(syllables)]


# -- independent checks -----------------------------------------------------------

def _sgn(x: int) -> int:
    return (x > 0) - (x < 0)


def _cone_key(serial, names):
    """A serialized ball cone as a frozenset of (exponent vector, sign).

    The exponent vector sums each generator's exponents, in ``names``
    order: (e1, e2) on Z^2, and (b, a) for y^b x^a on the Klein group.
    """
    def coords(pairs):
        v = dict.fromkeys(names, 0)
        for g, e in pairs:
            v[g] += e
        return tuple(v[n] for n in names)
    return frozenset((coords(pairs), s) for pairs, s in serial)


Z2 = ("e1", "e2")
KLEIN = ("y", "x")


def _klein_ball(r: int):
    """Word ball of the Klein bottle group on (b, a) = y^b x^a.

    y^b x^a * y^d x^c = y^(b + (-1)^a d) x^(a + c), since x y x^-1 = y^-1.
    """
    letters = [(0, 1), (0, -1), (1, 0), (-1, 0)]
    seen = {(0, 0)}
    frontier = [(0, 0)]
    for _ in range(r):
        nxt = []
        for b, a in frontier:
            for d, c in letters:
                w = (b + (d if a % 2 == 0 else -d), a + c)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    seen.discard((0, 0))
    return seen


def _klein_restrictions(r: int):
    """The four Klein-bottle orderings (Clay-Rolfsen) restricted to B_r."""
    ball = _klein_ball(r)
    return {frozenset(((b, a), ex * _sgn(a) if a else ey * _sgn(b))
                      for b, a in ball)
            for ex in (1, -1) for ey in (1, -1)}


def _z2_ball(r: int):
    return [(m, n) for m in range(-r, r + 1) for n in range(-r, r + 1)
            if 0 < abs(m) + abs(n) <= r]


def _slope_sign(a, variant, m, n) -> int:
    """Half-plane cone P_a^variant on Z^2, with the on-line tie rule."""
    a1, a2 = a
    t = a1 * m + a2 * n
    if t:
        return 1 if (t > 0) == (variant[0] == "+") else -1
    c = _sgn(-a2) * _sgn(m) if m else _sgn(a1) * _sgn(n)
    return 1 if (c > 0) == (variant[1] == "+") else -1


def _slope_restrictions(r: int, bound: int):
    ball = _z2_ball(r)
    return {frozenset(((m, n), _slope_sign((p, q), v, m, n)) for m, n in ball)
            for p in range(-bound, bound + 1) for q in range(-bound, bound + 1)
            if gcd(abs(p), abs(q)) == 1 for v in VARIANTS}


def klein_survivors_are_the_four_orderings(r):
    def check(doc):
        surv = doc["result"]["survivors"]
        got = {_cone_key(c, KLEIN) for c in surv["cones"]}
        return surv["count"] == 4 and got == _klein_restrictions(r)
    check.__name__ = f"klein survivors = 4 orderings on B_{r}"
    return check


def z2_survivors_are_slope_restrictions(r):
    def check(doc):
        got = {_cone_key(c, Z2)
               for c in doc["result"]["survivors"]["cones"]}
        return got == _slope_restrictions(r, 5)
    check.__name__ = f"z2 survivors = slope cones on B_{r}"
    return check


def klein_orderings_enumerated(r):
    def check(doc):
        got = {_cone_key(c, KLEIN) for c in doc["result"]["cones"]}
        return _klein_restrictions(r) <= got
    check.__name__ = f"4 klein orderings among ball cones of B_{r}"
    return check


def slope_cones_enumerated(r):
    def check(doc):
        got = {_cone_key(c, Z2) for c in doc["result"]["cones"]}
        return _slope_restrictions(r, 3) <= got
    check.__name__ = f"slope cones among ball cones of B_{r}"
    return check


def result_is(key, value):
    def check(doc):
        return doc["result"][key] == value
    check.__name__ = f"result.{key} == {value!r}"
    return check


def quad_slope_read_back(doc):
    # direction (-a2, a1) of a = (1, sqrt 2), entries as [p, q, r, d]
    res = doc["result"]
    return (res["exact"] and res["variant"] == "+"
            and res["slope"] == {"surd": [[0, -1, 1, 2], [1, 0, 1, 0]]})


def expanded_is_free_reduction(pairs):
    want = free_reduce(pairs)

    def check(doc):
        return doc["result"]["expanded"] == want
    check.__name__ = "expanded = free reduction of the input"
    return check


def free_amalgam_form(pairs):
    want = free_reduce(pairs)

    def check(doc):
        res = doc["result"]
        return res["core_exp"] == 0 and res["canonical_word"] == want
    check.__name__ = "free amalgam form = free reduction of the input"
    return check


def square_amalgam_form(pairs):
    # a, b -> 1 is a homomorphism of <a, b | a^2 = b^2> onto Z, and the
    # coset representatives of 2Z in Z are {0, 1}
    total = sum(e for _, e in pairs)

    def check(doc):
        res = doc["result"]
        sides = [s for s, _ in res["letters"]]
        return (2 * res["core_exp"] + len(sides) == total
                and all(e == 1 for _, e in res["letters"])
                and all(x != y for x, y in zip(sides, sides[1:])))
    check.__name__ = "square amalgam form keeps the exponent sum"
    return check


def run_checks(job: Job, seed: int, exit_code, stdout: str) -> list[str]:
    """Names of the checks this job output fails; empty when it passes."""
    failed = []
    if exit_code != job.exit_code:
        failed.append(f"exit {exit_code} != {job.exit_code}")
    pin = job.pin(seed)
    if pin is not None:
        sha = hashlib.sha256(stdout.encode()).hexdigest()
        if [exit_code, sha] != [pin["exit"], pin["sha256"]]:
            failed.append("sha256 pin")
    if job.checks:
        try:
            doc = json.loads(stdout)
        except ValueError:
            return failed + ["stdout is not JSON"]
        for check in job.checks:
            try:
                ok = check(doc)
            except (KeyError, TypeError, ValueError, IndexError):
                ok = False
            if not ok:
                failed.append(check.__name__)
    return failed


# -- job groups and workloads ---------------------------------------------------------

def census_extend(seed: int, tiny: bool):
    """Extendability filter: closure triples rebuilt once per cone."""
    k, z = (2, 1) if tiny else (4, 2)
    return [
        Job(f"census klein r{k} extend {2 * k}",
            ["census", "--group", "klein", "--r", str(k), "--extend", str(2 * k)],
            checks=[klein_survivors_are_the_four_orderings(k)]),
        Job(f"census z2 r{z} extend {z + 3}",
            ["census", "--group", "z2", "--r", str(z), "--extend", str(z + 3)],
            checks=[z2_survivors_are_slope_restrictions(z)]),
        Job(f"census z2 box r{z} extend {2 * z}",
            ["census", "--group", "z2", "--r", str(z), "--ball", "box",
             "--extend", str(2 * z)]),
        Job(f"census f2 r1 extend {2 if tiny else 4}",
            ["census", "--group", "f2", "--r", "1",
             "--extend", "2" if tiny else "4"]),
    ]


def census_enumerate(seed: int, tiny: bool):
    """Enumeration DFS that collects many solutions, then a large JSON emit."""
    z, k, b = (3, 4, 1) if tiny else (8, 10, 3)
    return [
        Job(f"census z2 r{z}", ["census", "--group", "z2", "--r", str(z)],
            checks=[slope_cones_enumerated(z)]),
        Job(f"census klein r{k}", ["census", "--group", "klein", "--r", str(k)],
            checks=[klein_orderings_enumerated(k)]),
        Job(f"census z2 box r{b}",
            ["census", "--group", "z2", "--r", str(b), "--ball", "box"]),
    ]


def scan(seed: int, tiny: bool):
    """Cone sign oracles, the Mobius/surd kernels and mul over short words."""
    r_ax, r_con, r_sol, r_slope, r_cvx = ((2, 3, 2, 5, 3) if tiny
                                          else (6, 5, 4, 40, 12))
    return [
        Job(f"axioms dynamical r{r_ax}",
            ["axioms", "--cone", DYNAMICAL, "--r", str(r_ax)],
            checks=[result_is("ok", True)]),
        Job(f"conradian dynamical r{r_con} all",
            ["conradian", "--cone", DYNAMICAL, "--r", str(r_con), "--all"],
            exit_code=1),
        Job(f"axioms sol lex r{r_sol}",
            ["axioms", "--group", "sol", "--cone", SOL_LEX, "--r", str(r_sol)],
            checks=[result_is("ok", True)]),
        Job(f"slope quad_slope r{r_slope}",
            ["slope", "--cone", QUAD_SLOPE, "--r", str(r_slope)],
            checks=[quad_slope_read_back]),
        Job(f"convexity slope [1,-1] <e1 e2> r{r_cvx}",
            ["convexity", "--cone", SLOPE_DIAG, "--subgroup", "e1 e2",
             "--r", str(r_cvx)],
            checks=[result_is("passed", True)]),
    ]


def rewrite(seed: int, tiny: bool):
    """Long free-product and amalgam words: freeprod, amalgam and actions."""
    rng = random.Random(seed)
    count, r_free, r_sq, commutators, syllables = ((20, 2, 2, 3, 10) if tiny
                                                   else (1000, 5, 6, 60, 200))
    ident_seed = rng.randrange(10 ** 6)
    kernel = kernel_word(rng, commutators)
    free_word = alternating_word(rng, syllables)
    square_word = alternating_word(rng, syllables)
    orbit_size = "4" if tiny else "64"
    return [
        Job(f"verify-identities count {count}",
            ["verify-identities", "--count", str(count),
             "--seed", str(ident_seed)],
            checks=[result_is("passed", True)], seeded=True),
        Job(f"malnormal free r{r_free}",
            ["malnormal", "--instance", "free", "--r", str(r_free)],
            checks=[result_is("passed", True)]),
        Job(f"malnormal square r{r_sq}",
            ["malnormal", "--instance", "square", "--r", str(r_sq)],
            exit_code=1, checks=[result_is("passed", False)]),
        Job(f"orbit sol lex t,a max {orbit_size}",
            ["orbit", "--cone", SOL_LEX, "--conjugators", "t,a",
             "--max-size", orbit_size]),
        Job(f"kernel-decompose {commutators} commutators",
            ["kernel-decompose", "--word", _text(kernel)],
            checks=[expanded_is_free_reduction(kernel)], seeded=True),
        Job(f"amalgam-nf free {syllables} syllables",
            ["amalgam-nf", "--instance", "free", "--word", _text(free_word)],
            checks=[free_amalgam_form(free_word)], seeded=True),
        Job(f"amalgam-nf square {syllables} syllables",
            ["amalgam-nf", "--instance", "square", "--word", _text(square_word)],
            checks=[square_amalgam_form(square_word)], seeded=True),
    ]


def census(seed: int, tiny: bool):
    """Every census job: the extendability filter, then the enumeration DFS."""
    return census_extend(seed, tiny) + census_enumerate(seed, tiny)


def scan_rewrite(seed: int, tiny: bool):
    """Every job off the census: bounded scans, then long-word rewriting."""
    return scan(seed, tiny) + rewrite(seed, tiny)


# The four job groups form two workloads, so that each run can last about a
# minute: on a shared host the speed drifts over tens of seconds, and a
# longer run averages more of that drift.
WORKLOADS = {
    "census": census,
    "scan-rewrite": scan_rewrite,
}

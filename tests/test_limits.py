"""Huge exponents and long words against the resource caps, one CLI process per case.

Each case runs in a child process limited to 1 GiB of address space and 10
CPU seconds.  Whatever the exponents, the CLI contract must hold: exit 0, 1
or 2 and no traceback.  A power that would outgrow its cap must be refused
(exit 2) before the work, not run into either limit.  Exponents are drawn,
and so are the work sizes of `slope` radii and `equivariance` samples, far
past what either limit admits: a scan past its cap is refused, and samples
are drawn one at a time, so a witness at sample 0 ends the check.  Other work
sizes stay at small fixed values.  A long word of small letters, under the
same limits, must be signed (exit 0).
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import leftorder

resource = pytest.importorskip("resource")

SRC = str(Path(leftorder.__file__).resolve().parents[1])
HYPERBOLIC = {"kind": "dynamical", "images": [[[2, 1], [1, 1]], [[1, 0], [2, 1]]],
              "basepoints": [[0, 1, 1, 2], [0, 1, 1, 3]]}
QUAD = {"kind": "quad_slope", "a": [[1, 0, 1, 0], [0, 1, 1, 2]], "sign": "+"}
SOL_LEX = {"kind": "lex", "ses": "sol",
           "kernel": {"kind": "slope", "a": [1, 0], "variant": "++"},
           "quotient": {"kind": "zsign", "sign": 1}}


def _exp(rng):
    """A nonzero exponent of 1 to 19 digits, at most 10^18 in size."""
    return rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(0, 18))


def _size(rng, digits):
    """A work size of ``digits`` to 19 digits."""
    return rng.randint(10 ** (digits - 1), 10 ** rng.randint(digits, 18))


def _word(rng, letters):
    return " ".join(f"{rng.choice(letters)}^{_exp(rng)}"
                    for _ in range(rng.randint(1, 3)))


def _nested(levels, by):
    """The hyperbolic cone wrapped in ``levels`` conjugates, each by ``by()``."""
    cone = HYPERBOLIC
    for _ in range(levels):
        cone = {"kind": "conjugate", "base": cone, "by": by()}
    return json.dumps(cone)


def _cases():
    rng = random.Random(0)
    lex = ["lex", "--ses", "sol", "--kernel", json.dumps(SOL_LEX["kernel"]),
           "--quotient", json.dumps(SOL_LEX["quotient"])]
    makers = [
        lambda: ["sign", "--cone", '{"kind":"dynamical"}', "--word", _word(rng, "ab")],
        lambda: ["sign", "--cone", json.dumps(HYPERBOLIC), "--word", _word(rng, "ab")],
        lambda: ["sign", "--cone", json.dumps(SOL_LEX), "--word", _word(rng, "abt")],
        lambda: ["sign", "--cone", '{"kind":"klein","ex":1,"ey":-1}',
                 "--word", _word(rng, "xy")],
        lambda: ["sign", "--cone", json.dumps(
            {"kind": "conjugate", "base": rng.choice([{"kind": "dynamical"}, HYPERBOLIC]),
             "by": [["a", _exp(rng)], ["b", _exp(rng)]]}), "--word", _word(rng, "ab")],
        lambda: [*lex, "--word", f"t^{_exp(rng)} a t^{_exp(rng)}"],
        lambda: ["conj-basis", "--g", f"a^{_exp(rng)}", "--h", f"b^{_exp(rng)}",
                 "--by", _word(rng, "ab")],
        lambda: ["kernel-decompose", "--word",
                 "a^{0} b^{1} a^-{0} b^-{1}".format(abs(_exp(rng)), abs(_exp(rng)))],
        lambda: ["amalgam-nf", "--instance", rng.choice(["square", "free"]),
                 "--word", _word(rng, "ab")],
        lambda: ["verify-identities", "--count", "20", "--max-exp", str(abs(_exp(rng)))],
    ]
    cases = [make() for _ in range(3) for make in makers]
    # the edges themselves: the largest exponents accepted and the first refused
    cases += [
        ["sign", "--cone", json.dumps(HYPERBOLIC), "--word", "a^65536"],
        ["sign", "--cone", json.dumps(HYPERBOLIC), "--word", "a^-65537"],
        [*lex, "--word", "t^1048576 a"],
        [*lex, "--word", "t^1048577 a"],
        ["verify-identities", "--count", "20", "--max-exp", str(10 ** 18)],
    ]
    # nested conjugates: one lift of the conjugators' product, under one cap
    cases += [["sign", "--cone", _nested(rng.randint(2, 4), lambda: [
        ["a", _exp(rng)], ["b", _exp(rng)]]), "--word", _word(rng, "ab")] for _ in range(3)]
    cases += [["sign", "--cone", _nested(n, lambda: [["a", 65536], ["b", 1]]),
               "--word", "b"] for n in (1, 2, 6)]
    # work sizes far past both limits: a refused scan, and a witness at sample 0
    cases += [["slope", "--cone", json.dumps(QUAD), "--r", str(_size(rng, 5))]
              for _ in range(3)]
    cases += [["equivariance", "--ses", "zxf2", "--theta-const", '{"kind":"dynamical"}',
               "--kernel", '{"kind":"zsign","sign":1}', "--conjugators", "a",
               "--samples", str(_size(rng, 9))] for _ in range(3)]
    return cases


def _limit():
    gib = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (gib, gib))
    resource.setrlimit(resource.RLIMIT_CPU, (10, 10))


def _run(argv):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-m", "leftorder.cli", *argv], env=env,
                          preexec_fn=_limit, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("argv", _cases(), ids=lambda argv: " ".join(argv)[:60])
def test_huge_exponents_keep_the_exit_contract(argv):
    proc = _run(argv)
    assert proc.returncode in (0, 1, 2), proc.stderr[-500:]
    assert "Traceback" not in proc.stderr, proc.stderr[-500:]
    if proc.returncode == 2:
        assert proc.stdout == "" and proc.stderr.startswith("error: ")


def test_long_dynamical_word_is_signed_in_linear_memory():
    # 18,000 syllables with small lifts: only short prefixes are memoized
    proc = _run(["sign", "--cone", '{"kind":"dynamical"}',
                 "--word", " ".join(["a b^-1"] * 9000)])
    assert proc.returncode == 0, proc.stderr[-500:]
    assert json.loads(proc.stdout)["result"] == {"sign": "-"}

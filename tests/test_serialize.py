"""The cone codec: the compact form, shape checks, and a seeded fuzz of the CLI."""

import copy
import json
import random

import pytest

from leftorder.actions import kernel_conj_cone
from leftorder import cli
from leftorder.cli import main
from leftorder.cones import (
    ConjugateCone, Embedding, KleinCone, RestrictionCone, cyclic_embedding,
    dynamical_cone, lex_cone, quad_slope_cone, restrict_cone,
    ses_kernel_embedding, slope_cone, z_cone,
)
from leftorder.errors import LeftOrderError
from leftorder.serialize import cone_to_dict, ses_from_dict
from leftorder.surd import rational, sqrt_of
from leftorder.words import KleinCtx, ZPowCtx

SOL = ses_from_dict("sol")
ZXF2 = ses_from_dict("zxf2")
DYN = dynamical_cone()
DYN_COMPACT = {"kind": "dynamical",
               "images": [[[1, 2], [0, 1]], [[1, 0], [2, 1]]],
               "basepoints": [[0, 1, 1, 2], [0, 1, 1, 3]]}
SOL_LEX = lex_cone(SOL, slope_cone((1, 0), "++", SOL.kernel),
                   z_cone(ctx=SOL.quotient))
SOL_LEX_COMPACT = {"kind": "lex", "ses": ["semidirect"],
                   "kernel": {"kind": "slope", "a": [1, 0], "variant": "++"},
                   "quotient": {"kind": "zsign", "sign": 1}}


def _compact_cases():
    """One cone of each kind, with its compact form as the previous
    per-class ``descriptor()`` methods wrote it."""
    a, b = DYN.ctx.gens()
    t = SOL.total.word([("t", 1)])
    u = ZPowCtx(1, ("u",))
    opaque = Embedding(u, DYN.ctx, lambda w: a ** u.vector(w)[0])
    quad_kernel = quad_slope_cone((rational(1), sqrt_of(2)), "+", SOL.kernel)
    return [
        (slope_cone((2, -3), "-+"),
         {"kind": "slope", "a": [2, -3], "variant": "-+"}),
        (quad_slope_cone((rational(1), sqrt_of(2)), "-"),
         {"kind": "quad_slope", "a": [[1, 0, 1, 0], [0, 1, 1, 2]], "sign": "-"}),
        (z_cone(False), {"kind": "zsign", "sign": -1}),
        (KleinCone(KleinCtx(), 1, -1), {"kind": "klein", "ex": 1, "ey": -1}),
        (DYN, DYN_COMPACT),
        (lex_cone(ZXF2, z_cone(ctx=ZXF2.kernel), dynamical_cone(ZXF2.quotient)),
         {"kind": "lex", "ses": ["direct_product", 0],
          "kernel": {"kind": "zsign", "sign": 1}, "quotient": DYN_COMPACT}),
        (ConjugateCone(SOL_LEX, t),
         {"kind": "conjugate", "by": [["t", 1]], "base": SOL_LEX_COMPACT}),
        (kernel_conj_cone(SOL, quad_kernel, t),
         {"kind": "kernel_action", "g": [["t", 1]],
          "base": {"kind": "quad_slope", "a": [[1, 0, 1, 0], [0, 1, 1, 2]],
                   "sign": "+"}}),
        (restrict_cone(SOL_LEX, ses_kernel_embedding(SOL)),
         {"kind": "restriction",
          "embedding": {"type": "ses_kernel", "ses": ["semidirect"]},
          "base": SOL_LEX_COMPACT}),
        (restrict_cone(DYN, cyclic_embedding(DYN.ctx, a * b)),
         {"kind": "restriction",
          "embedding": {"type": "cyclic", "word": [["a", 1], ["b", 1]]},
          "base": DYN_COMPACT}),
        (RestrictionCone(DYN, opaque),
         {"kind": "restriction", "embedding": {"type": "opaque"},
          "base": DYN_COMPACT}),
    ]


def test_compact_form_pinned():
    for cone, expected in _compact_cases():
        assert cone_to_dict(cone, False) == expected, type(cone).__name__


def test_full_form_refuses_opaque_embedding():
    cone, _ = _compact_cases()[-1]
    with pytest.raises(LeftOrderError, match="opaque"):
        cone_to_dict(cone)


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects a flag
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- inputs that crashed or were silently accepted -----------------------------------

BAD_CONES = [
    '{"kind":"slope","a":[1],"variant":"++"}',
    '{"kind":"slope","a":["x",1],"variant":"++"}',
    '{"kind":"zsign","sign":[1,2]}',
    '{"kind":"zsign","sign":"x"}',
    '{"kind":"klein","ex":true,"ey":1}',
    '{"kind":"restriction","embedding":"+","base":{"kind":"dynamical"}}',
    '{"kind":"lex","ses":[0,0],"kernel":{"kind":"zsign"},"quotient":{"kind":"zsign"}}',
    '{"kind":"dynamical","images":[[[1,2],[0,1]],[[1,0],[2,1]]],"basepoints":2}',
    '{"kind":"dynamical","images":[[[1,2],[0,1]],[[1,0],[2,1]]],'
    '"basepoints":[[0,1,0,2]]}',
    '{"kind":"quad_slope","a":[[1,0,0,0],[0,1,1,2]],"sign":"+"}',
    '{"kind":"lex","ses":{"type":"direct_product","factors":[{"family":"zpow",'
    '"rank":1},{"family":"klein"}],"kernel_factor":5},'
    '"kernel":{"kind":"zsign"},"quotient":{"kind":"klein","ex":1,"ey":1}}',
    '{"kind":"zsign","ctx":{"family":"free","rank":1}}',
    '{"kind":"slope","a":[1,0],"variant":"++","ctx":{"family":"klein"}}',
]

BAD_GROUPS = [
    '{"family":"free","rank":9}',
    '{"family":"free","rank":"x"}',
    '{"family":"free_product","factors":5}',
    '{"family":"zpow","rank":2,"gens":["a"]}',
    '{"family":"zpow","rank":2,"gens":["a","a"]}',
    '{"family":"semidirect","matrix":[[2,1]]}',
]


@pytest.mark.parametrize("cone", BAD_CONES)
def test_bad_cone_shape_exits_2(capsys, cone):
    code, out, err = run(capsys, "axioms", "--cone", cone, "--r", "1")
    assert (code, out) == (2, "") and err.startswith("error: ")


@pytest.mark.parametrize("group", BAD_GROUPS)
def test_bad_group_shape_exits_2(capsys, group):
    code, out, err = run(capsys, "axioms", "--group", group,
                         "--cone", '{"kind":"slope","a":[1,0],"variant":"++"}')
    assert (code, out) == (2, "") and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("verify-identities", "--max-exp", "0"),
    ("axioms", "--cone", '{"kind":"zsign"}', "--r", "-3"),
    ("slope", "--cone", '{"kind":"slope","a":[1,0],"variant":"++"}', "--r", "-1"),
    ("census", "--group", "klein", "--r", "-2"),
    ("census", "--group", "klein", "--r", "1", "--extend", "-1"),
    ("orbit", "--cone", '{"kind":"zsign"}', "--conjugators", "e1",
     "--max-size", "-1"),
    ("equivariance", "--ses", "sol", "--theta-const", '{"kind":"zsign"}',
     "--kernel", '{"kind":"slope","a":[1,0],"variant":"++"}',
     "--conjugators", "t", "--samples", "-1"),
    ("malnormal", "--factor", "5"),
    ("axioms", "--cone", '{"kind":"zsign"}', "--r", "x"),
])
def test_out_of_range_flag_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and "error: argument" in err


def test_dynamical_cone_on_free_group_of_rank_3(capsys):
    images = [[[1, 2], [0, 1]], [[1, 0], [2, 1]], [[3, 2], [1, 1]]]
    cone = json.dumps({"kind": "dynamical", "images": images,
                       "basepoints": [[0, 1, 1, 2]]})
    code, out, _ = run(capsys, "sign", "--group", '{"family":"free","rank":3}',
                       "--cone", cone, "--word", "c")
    assert code == 0
    assert json.loads(out)["config"]["cone"]["images"] == images


# -- seeded fuzz ------------------------------------------------------------------------

_GROUPS = [
    {"family": "zpow", "rank": 2, "gens": ["p", "q"]},
    {"family": "free", "rank": 2},
    {"family": "klein", "gens": ["x", "y"]},
    {"family": "semidirect", "matrix": [[2, 1], [1, 1]], "gens": ["a", "b", "t"]},
    {"family": "direct_product",
     "factors": [{"family": "zpow", "rank": 1}, {"family": "free", "rank": 2}]},
    {"family": "free_product",
     "factors": [{"family": "zpow", "rank": 1, "gens": ["a"]},
                 {"family": "zpow", "rank": 1, "gens": ["b"]}]},
]

# small values only: a shape fuzz, so no input here asks for a large ball
_JUNK = [None, True, False, 0, 1, -1, 2, 9, 1.5, "", "x", "++", "sol",
         [], [0], [1, 2], ["x", 1], [[1, 2], [0, 1]], [[1]], [0, 1, 0, 2],
         [1, 0, 1, 0], {}, {"kind": "zsign"}, {"type": "semidirect"},
         {"family": "free"}, {"family": "zpow", "rank": -1}, *_GROUPS]


def _seeds():
    """Valid descriptors to mutate: every cone kind in the full form, plus
    hand-written ones that name their SES or omit their context."""
    a, b = DYN.ctx.gens()
    zxk = ses_from_dict("zxklein")
    cones = [c for c, _ in _compact_cases()[:-1]]  # the last is opaque
    cones += [lex_cone(zxk, z_cone(ctx=zxk.kernel), KleinCone(zxk.quotient, 1, 1)),
              ConjugateCone(DYN, a * b ** -2)]
    seeds = [cone_to_dict(c) for c in cones]
    seeds += [json.loads(text) for text in BAD_CONES]
    seeds += [
        {"kind": "lex", "ses": "sol",
         "kernel": {"kind": "slope", "a": [1, 0], "variant": "++"},
         "quotient": {"kind": "zsign", "sign": 1}},
        {"kind": "lex", "ses": {"type": "direct_product", "kernel_factor": 1,
                                "factors": [{"family": "zpow", "rank": 1, "gens": ["z"]},
                                            {"family": "free", "rank": 2}]},
         "kernel": {"kind": "dynamical"}, "quotient": {"kind": "zsign"}},
        {"kind": "restriction", "embedding": {"type": "cyclic", "word": [["x", 1]]},
         "base": {"kind": "klein", "ex": 1, "ey": -1}},
    ]
    return seeds


def _paths(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutate(rng: random.Random, obj):
    """Replace, drop or add one field somewhere inside a copy of ``obj``."""
    obj = copy.deepcopy(obj)
    path = rng.choice(list(_paths(obj)))
    if not path:
        return rng.choice(_JUNK)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    roll = rng.random()
    if roll < 0.2:
        del parent[path[-1]]
    elif roll < 0.3 and isinstance(parent, dict):
        parent["ctx"] = rng.choice(_JUNK)
    else:
        parent[path[-1]] = rng.choice(_JUNK)
    return obj


def test_fuzz_malformed_descriptors_never_crash(capsys, monkeypatch):
    parser = cli.build_parser()  # building it dominates a run; parsing keeps no state
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    rng = random.Random(20261018)
    seeds = _seeds()
    words = ["e1", "a", "b", "x y", "t a", "z", "u", "p", "c", "1", "[[0, 1]]"]
    runs = 0
    for _ in range(3000):
        desc = _mutate(rng, rng.choice(seeds))
        if rng.random() < 0.5:
            desc = _mutate(rng, desc)
        argv = ["--cone", json.dumps(desc)]
        if rng.random() < 0.25:
            argv += ["--group", json.dumps(_mutate(rng, rng.choice(_GROUPS)))]
        for command in (["sign", "--word", rng.choice(words)], ["axioms", "--r", "1"]):
            try:
                code, _, err = run(capsys, *command, *argv)
            except Exception as exc:  # an escaping exception is a CLI traceback
                pytest.fail(f"{command[0]} {argv} raised {exc!r}")
            assert code in (0, 1, 2) and "Traceback" not in err, (command, argv)
            runs += 1
    assert runs == 6000

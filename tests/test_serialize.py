"""The cone codec: the compact form, shape checks, and a seeded fuzz of the CLI."""

import copy
import hashlib
import json
import random
import time

import pytest

from leftorder.actions import (
    ConstantConeMap, cone_equal, conj_cone, equivariance_check,
    kernel_conj_cone, orbit, restricted_orbit_sample,
)
from leftorder.amalgam import AmalgamCtx, malnormality_check
from leftorder import cli
from leftorder.cli import main
from leftorder.cones import (
    AxiomCheckReport, ConjugateCone, Embedding, KleinCone, RestrictionCone,
    cyclic_embedding, detect_slope, dynamical_cone, lex_cone, quad_slope_cone,
    restrict_cone, ses_kernel_embedding, slope_cone, z_cone,
)
from leftorder.conrad import (
    cofinality_witness, conradian_check, convexity_check, cyclic_subgroup,
    order_hom_check,
)
from leftorder.errors import LeftOrderError
from leftorder.freeprod import basis_word, normal_closure_criterion
from leftorder.serialize import (
    NAMED_GROUPS, cone_from_dict, cone_to_dict, ctx_from_dict, dumps, ses_from_dict,
    to_json,
)
from leftorder.surd import rational, sqrt_of
from leftorder.words import FreeProductCtx, KleinCtx, ZPowCtx

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
         {"kind": "quad_slope", "a": [[1, 0, 1, 0], [-3, -1, 1, 2]], "sign": "-"}),
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


@pytest.mark.parametrize("name,ctx", [
    ("free", AmalgamCtx((0, 0))), ("square", AmalgamCtx((2, 2))),
    ("trefoil", AmalgamCtx((2, 3))), (None, AmalgamCtx((2, 3), ("x", "y"))),
], ids=["free", "square", "trefoil", "gens-xy"])
def test_amalgam_descriptor_round_trips(name, ctx):
    assert ctx_from_dict(ctx.descriptor()) == ctx
    assert name is None or ctx_from_dict(name) == ctx
    assert repr(ctx) == f"<amalgam on {','.join(ctx.gen_names)}>"


@pytest.mark.parametrize("weights", [[2], [2, -1], [0, 3], [True, 2], "x", None],
                         ids=["one", "negative", "half-zero", "bool", "text", "missing"])
def test_bad_amalgam_weights_exit_2(capsys, weights):
    # census runs on any valid amalgam, so exit 2 here is the weights' check
    group = {"family": "amalgam"}
    if weights is not None:
        group["weights"] = weights
    code, out, err = run(capsys, "census", "--group", json.dumps(group), "--r", "1")
    assert (code, out) == (2, "") and err.startswith("error: ")
    with pytest.raises(LeftOrderError):
        ctx_from_dict(group)


@pytest.mark.parametrize("name", ["f2", "klein", "sol"])
def test_instance_that_is_not_an_amalgam_exits_2(capsys, tmp_path, name):
    for argv in (("malnormal", "--instance", name),
                 ("amalgam-nf", "--instance", name, "--word", "a")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: ")
        assert "is not an amalgam" in err and "Traceback" not in err
    code, out, _ = run(capsys, "malnormal", "--instance", "square", "--r", "3")
    doc = json.loads(out)
    doc["config"]["instance"] = name
    report = tmp_path / "report.json"
    report.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify-witness", "--report", str(report))
    assert (code, out) == (2, "") and "is not an amalgam" in err


class _LoudDict(dict):
    def __repr__(self):
        raise AssertionError("a reader formatted a valid value")


class _LoudList(list):
    __repr__ = _LoudDict.__repr__


def _loud(doc):
    """``doc`` with every object and list replaced by a subclass whose repr raises."""
    if isinstance(doc, dict):
        return _LoudDict({k: _loud(v) for k, v in doc.items()})
    if isinstance(doc, list):
        return _LoudList(map(_loud, doc))
    return doc


def test_readers_format_only_on_failure():
    for cone, _ in _compact_cases()[:-1]:
        doc = json.loads(json.dumps(cone_to_dict(cone)))
        assert cone_from_dict(_loud(doc)) == cone_from_dict(doc), doc["kind"]
    for doc in NAMED_GROUPS.values():
        assert ctx_from_dict(_loud(doc)) == ctx_from_dict(doc)
    # the messages of a bad shape are as before
    for bad, message in (({"kind": "slope", "a": [1], "variant": "++"},
                          "slope a [1] has the wrong shape"),
                         (5, "cone descriptor 5 is not an object"),
                         ({"kind": "zsign", "sign": "x"}, "sign 'x' is not a nonzero integer")):
        with pytest.raises(LeftOrderError) as info:
            cone_from_dict(bad)
        assert str(info.value) == message
    with pytest.raises(LeftOrderError, match=r"^gens \['a', 'a'\] are not 2 distinct names$"):
        ctx_from_dict({"family": "zpow", "rank": 2, "gens": ["a", "a"]})


def test_nested_conjugates_read_in_linear_time():
    doc = json.loads('{"kind":"conjugate","by":[["x",1]],"base":' * 900
                     + '{"kind":"klein","ex":1,"ey":1}' + "}" * 900)
    t0 = time.monotonic()
    cone = cone_from_dict(doc)
    assert time.monotonic() - t0 < 0.5
    assert cone.ctx == KleinCtx()


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


def test_radicand_cap(capsys):
    # a radicand read from JSON is factored by trial division, so it is capped
    quad = {"kind": "quad_slope", "a": [[1, 0, 1, 0], [0, 1, 1, 999983]], "sign": "+"}
    dyn = {**DYN_COMPACT, "basepoints": [[0, 1, 1, 999983]]}
    for cone, argv in ((quad, ("slope", "--r", "3")), (dyn, ("axioms", "--r", "1"))):
        code, out, _ = run(capsys, *argv, "--cone", json.dumps(cone))
        assert code == 0
        cone = json.loads(json.dumps(cone).replace("999983", "100000000003"))
        code, out, err = run(capsys, *argv, "--cone", json.dumps(cone))
        assert (code, out) == (2, "") and err.startswith("error: ")


def test_verify_witness_needs_a_natural_radius(capsys, tmp_path):
    code, out, _ = run(capsys, "axioms", "--cone", '{"kind":"klein","ex":1,"ey":1}',
                       "--r", "1")
    assert code == 0
    doc = json.loads(out)
    report = tmp_path / "report.json"
    for r in ("x", -1, True, 1.0, None):
        doc["config"]["r"] = r
        report.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify-witness", "--report", str(report))
        assert (code, out) == (2, "") and err.startswith("error: "), r


@pytest.mark.parametrize("group", ["klein", "z2", "zz-free", "trefoil"])
def test_dynamical_cone_refuses_a_group_that_is_not_free(capsys, group):
    code, out, err = run(capsys, "sign", "--group", group,
                         "--cone", '{"kind":"dynamical"}', "--word", "a")
    assert (code, out) == (2, "") and err.startswith("error: a dynamical cone")


@pytest.mark.parametrize("group,code,sha256", [
    ("f2", 0, "84b6d4434fd022d9e7bc767d8e5816f07f75e38248aebca5782f0790b26e6c82"),
    ('{"family":"free","rank":3}', 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
], ids=["f2", "free-rank-3"])
def test_default_dynamical_cone_on_a_free_group_bytes_pinned(capsys, group, code, sha256):
    got, out, _ = run(capsys, "sign", "--group", group,
                      "--cone", '{"kind":"dynamical"}', "--word", "a")
    assert got == code and hashlib.sha256(out.encode()).hexdigest() == sha256


def test_dynamical_cone_on_free_group_of_rank_3(capsys):
    images = [[[1, 2], [0, 1]], [[1, 0], [2, 1]], [[3, 2], [1, 1]]]
    cone = json.dumps({"kind": "dynamical", "images": images,
                       "basepoints": [[0, 1, 1, 2]]})
    code, out, _ = run(capsys, "sign", "--group", '{"family":"free","rank":3}',
                       "--cone", cone, "--word", "c")
    assert code == 0
    assert json.loads(out)["config"]["cone"]["images"] == images



# -- the result encoder -----------------------------------------------------------------

def _report_cases():
    """One report of each type, with the dict its former ``to_dict`` wrote."""
    z2, klein, zxk = ZPowCtx(2), KleinCtx(), ses_from_dict("zxklein")
    x, y = klein.gens()
    diag = slope_cone((1, -1), "++")
    quad = quad_slope_cone((rational(1), sqrt_of(2)), "+")
    zz = FreeProductCtx((ZPowCtx(1, ("a",)), ZPowCtx(1, ("b",))))
    a3, b1 = zz.factors[0].word([("a", 3)]), zz.factors[1].word([("b", 1)])
    a1 = zz.factors[0].word([("a", 1)])
    e1, e2 = z2.gens()
    surd = {"surd": [[0, -1, 1, 2], [1, 0, 1, 0]]}
    return [
        (cone_equal(slope_cone((1, 0), "++"), slope_cone((1, 1), "++")),
         {"verdict": "distinct", "witness": [["e1", 1], ["e2", -1]], "radius": None}),
        (cone_equal(DYN, DYN),
         {"verdict": "equal", "witness": None, "radius": None}),
        (cone_equal(DYN, conj_cone(DYN, DYN.ctx.gens()[0])),
         {"verdict": "unknown", "witness": None, "radius": 0}),
        (orbit(KleinCone(klein, 1, 1), [x, y]),
         {"size": 2, "strategy": "exact", "radius": 4,
          "conjugators": [[["x", 1]], [["x", -1]], [["y", 1]], [["y", -1]]],
          "representatives": [{"kind": "klein", "ex": 1, "ey": 1},
                              {"kind": "klein", "ex": 1, "ey": -1}],
          "witnesses": [[1, 0, [["y", 1]]]]}),
        (equivariance_check(ConstantConeMap(KleinCone(zxk.quotient, 1, 1)), zxk,
                            [(zxk.total.word([("x", 1)]), z_cone(ctx=zxk.kernel))], 2),
         {"ok": False, "radius": 2,
          "witness": {"conjugator": [["x", 1]], "sample": 0, "word": [["y", 1]]}}),
        (restricted_orbit_sample(SOL_LEX, ses_kernel_embedding(SOL),
                                 [SOL.total.word([("t", 1)])], 1, detect_radius=2)[1],
         {"conjugator": [["t", 1]],
          "cone": {"kind": "restriction",
                   "embedding": {"type": "ses_kernel", "ses": ["semidirect"]},
                   "base": {**SOL_LEX_COMPACT,
                            "kernel": {"kind": "slope", "a": [1, -1], "variant": "++"}}},
          "verified": True,
          "detection": {"exact": True, "slope": {"rational": [1, 1]}, "variant": "++",
                        "sector": None, "radius": 2}}),
        (AxiomCheckReport(False, "closure", (x, y, x * y), 2),
         {"ok": False, "kind": "closure", "radius": 2,
          "words": [[["x", 1]], [["y", 1]], [["y", -1], ["x", 1]]]}),
        (diag.slope(), {"rational": [1, 1]}),
        (quad.slope(), surd),
        (detect_slope(quad, 2),
         {"exact": True, "slope": surd, "variant": "+",
          "sector": [[-1, 1], [-2, 1]], "radius": 2}),
        (conradian_check(DYN, 3),
         {"passed": False, "radius": 3,
          "witnesses": [[[["a", 2]], [["a", 2], ["b", -1]]]]}),
        (convexity_check(diag, cyclic_subgroup(z2, e1), 2),
         {"passed": False, "radius": 2, "witness": [[], [["e2", -1]], [["e1", 1]]]}),
        (cofinality_witness(slope_cone((1, 0), "++"), e1, e1, 5),
         {"holds": False, "bound": 5, "failed_at": 1}),
        (order_hom_check(slope_cone((1, 0), "++"), lambda w: z2.vector(w)[1], 2),
         {"passed": False, "radius": 2, "witness": [[], [["e1", 1], ["e2", -1]]]}),
        (malnormality_check(AmalgamCtx((2, 2)), 0, 2),
         {"passed": False, "radius": 2, "factor": 0,
          "witness": [[["a", 2]], [["b", 1]]]}),
        (normal_closure_criterion(basis_word(zz, [(a3, b1, 1)]), [(a1, b1)]),
         {"consistent": False, "violating": [[["a", 3]], [["b", 1]]]}),
    ]


def test_to_json_pinned():
    for report, expected in _report_cases():
        assert to_json(report) == expected, type(report).__name__


def test_amalgam_nf_result_pinned(capsys):
    # the command spells out the result of amalgam_normal_form field by field
    code, out, _ = run(capsys, "amalgam-nf", "--word", "a^3 b a^-5 b^3")
    assert code == 0
    assert json.loads(out)["result"] == {
        "core_exp": -1, "letters": [[0, 1], [1, 1], [0, 1], [1, 1]],
        "factor_length": 4,
        "canonical_word": [["a", -1], ["b", 1], ["a", 1], ["b", 1]]}


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


# -- the indented writer ---------------------------------------------------------

_ALPHABET = ['a', 'b', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\x00', '\x1f',
             '\x7f', 'é', 'ß', '\u2028', '𝔽', '[', '{', ',', ':', ']', '}']


def _text(rng):
    return "".join(rng.choice(_ALPHABET) for _ in range(rng.randrange(6)))


def _scalar(rng):
    return rng.choice([
        lambda: _text(rng), lambda: rng.randint(-10 ** 30, 10 ** 30),
        lambda: rng.randint(-3, 3), lambda: True, lambda: False, lambda: None])()


def _document(rng, depth, pool):
    """A random document; ``pool`` collects containers that later nodes reuse."""
    roll = rng.random()
    if pool and roll < 0.2:
        return rng.choice(pool)
    if depth == 0 or roll < 0.4:
        return _scalar(rng)
    n = rng.randrange(5)   # 0 gives the empty container
    kind = rng.choice([list, tuple, dict])
    if kind is dict:
        out = {_text(rng): _document(rng, depth - 1, pool) for _ in range(n)}
    else:
        out = kind(_document(rng, depth - 1, pool) for _ in range(n))
    pool.append(out)
    return out


def test_dumps_equals_json_on_random_documents():
    rng = random.Random(1213)
    for _ in range(400):
        doc = _document(rng, rng.randrange(1, 6), [])
        assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)


def test_dumps_writes_a_shared_object_at_each_of_its_depths():
    item = [[["e1", 1], ["e2", -2]], -1]
    empty, table = [], {"b": 1, "a": [None]}
    doc = {"z": [item] * 50, "y": [[item, empty], {"k": item}], "x": item,
           "w": (table, [table, (table,)]), "v": [empty, empty]}
    assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)


def test_dumps_scalar_keys_and_strings_as_json_writes_them():
    doc = {"b": 1, "a": 2, "B": {"é": "\"\\\x01𝔽", "[{,:": ""},
           "": [10 ** 30, -10 ** 30, True, False, None, (), {}, [[]]]}
    assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)
    for doc in ({2: "x", 1: "y"}, {True: 1}, {None: 0}, "s", 7, None):
        assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)


@pytest.mark.parametrize("doc", [{1, 2}, object(), [1, {"a": frozenset()}],
                                 {(1, 2): 3}])
def test_dumps_rejects_what_json_rejects(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        dumps(doc)


@pytest.mark.parametrize("wrap", [lambda x: [x], lambda x: (x,),
                                  lambda x: {"k": x}],
                         ids=["list", "tuple", "dict"])
def test_dumps_nests_as_deep_as_json(wrap):
    doc = 1
    for _ in range(800):
        doc = wrap(doc)
    assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)


def test_dumps_rejects_a_cycle():
    loop: list = [1]
    loop.append({"again": [loop]})
    with pytest.raises(ValueError):
        dumps(loop)

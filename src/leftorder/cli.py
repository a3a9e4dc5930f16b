"""Batch command-line surface.

Every subcommand writes one JSON document {command, config, result,
witnesses} to stdout (or --out) and exits 0 on pass/success, 1 when a
witness or violation was found, 2 on usage or resource errors.  Identical
invocations produce identical bytes; all sampling is seeded (default 0).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .actions import ConstantConeMap, equivariance_check, orbit
from .amalgam import (
    MalnormalityReport, amalgam_normal_form, free_product_amalgam,
    malnormality_check, square_amalgam,
)
from .census import (
    CENSUS_DOMAIN_CAP, census_digest, enumerate_ball_cones, extendable_filter,
)
from .cones import check_cone_axioms_on_ball, detect_slope, lex_cone
from .conrad import (
    ConradianReport, ConvexityReport, conradian_check, convexity_check,
    cyclic_subgroup,
)
from .errors import LeftOrderError, MalformedWordError
from .freeprod import (
    basis_word, conj_basis, expand, exponent_sum, kernel_decompose,
    normal_closure_criterion,
)
from .serialize import (
    NAMED_SES, cone_from_dict, cone_to_dict, ctx_from_dict, ses_from_dict,
    word_from_pairs,
)
from .words import (
    DirectProductCtx, FreeCtx, FreeProductCtx, GroupCtx, KleinCtx,
    SemidirectCtx, ZPowCtx,
)
from .surd import mat2

NAMED_GROUPS = {
    "klein": lambda: KleinCtx(),
    "z": lambda: ZPowCtx(1),
    "z2": lambda: ZPowCtx(2),
    "f2": lambda: FreeCtx(2),
    "zz-free": lambda: FreeProductCtx((ZPowCtx(1, ("a",)), ZPowCtx(1, ("b",)))),
    "sol": lambda: SemidirectCtx(mat2([[2, 1], [1, 1]])),
    "zxf2": lambda: DirectProductCtx((ZPowCtx(1, ("z",)), FreeCtx(2))),
}


def _group(spec: str) -> GroupCtx:
    if spec in NAMED_GROUPS:
        return NAMED_GROUPS[spec]()
    return ctx_from_dict(json.loads(spec))


def _word(ctx: GroupCtx, text: str):
    text = text.strip()
    if text.startswith("["):
        return word_from_pairs(ctx, json.loads(text))
    if text in ("1", ""):
        return ctx.identity()
    pairs = []
    for token in text.replace("*", " ").split():
        if "^" in token:
            name, exp = token.split("^", 1)
            pairs.append((name, int(exp)))
        else:
            pairs.append((token, 1))
    return word_from_pairs(ctx, pairs)


def _words(ctx: GroupCtx, text: str):
    return [_word(ctx, part) for part in text.split(",") if part.strip()]


def _cone(args):
    ctx = _group(args.group) if args.group else None
    return cone_from_dict(json.loads(args.cone), ctx)


def _emit(args, command: str, config: dict, result: dict, witnesses=()) -> None:
    doc = {"command": command, "config": config, "result": result,
           "witnesses": list(witnesses)}
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommand handlers -----------------------------------------------------------

def _cmd_sign(args) -> int:
    cone = _cone(args)
    w = _word(cone.ctx, args.word)
    s = cone.sign(w)
    _emit(args, "sign", {"cone": cone_to_dict(cone), "word": w.pairs()},
          {"sign": "+" if s > 0 else "-"})
    return 0


def _cmd_axioms(args) -> int:
    cone = _cone(args)
    rep = check_cone_axioms_on_ball(cone, args.r)
    _emit(args, "axioms", {"cone": cone_to_dict(cone), "r": args.r},
          rep.to_dict(), [] if rep.ok else [rep.to_dict()])
    return 0 if rep.ok else 1


def _cmd_orbit(args) -> int:
    cone = _cone(args)
    conjugators = _words(cone.ctx, args.conjugators)
    rep = orbit(cone, conjugators, strategy=args.strategy, radius=args.radius,
                max_size=args.max_size)
    _emit(args, "orbit",
          {"cone": cone_to_dict(cone), "conjugators": args.conjugators,
           "strategy": args.strategy, "max_size": args.max_size},
          rep.to_dict())
    return 0


def _cmd_conradian(args) -> int:
    cone = _cone(args)
    rep = conradian_check(cone, args.r, collect_all=args.all)
    _emit(args, "conradian", {"cone": cone_to_dict(cone), "r": args.r},
          rep.to_dict(),
          [[g.pairs(), h.pairs()] for g, h in rep.witnesses])
    return 0 if rep.passed else 1


def _cmd_convexity(args) -> int:
    cone = _cone(args)
    gen = _word(cone.ctx, args.subgroup)
    sub = cyclic_subgroup(cone.ctx, gen)
    rep = convexity_check(cone, sub, args.r)
    _emit(args, "convexity",
          {"cone": cone_to_dict(cone), "subgroup": gen.pairs(), "r": args.r},
          rep.to_dict(), [] if rep.passed else [rep.to_dict()["witness"]])
    return 0 if rep.passed else 1


def _cmd_slope(args) -> int:
    cone = _cone(args)
    res = detect_slope(cone, args.r)
    _emit(args, "slope", {"cone": cone_to_dict(cone), "r": args.r},
          res.to_dict())
    return 0


def _cmd_lex(args) -> int:
    ses = ses_from_dict(args.ses if args.ses in NAMED_SES
                        else json.loads(args.ses))
    kernel = cone_from_dict(json.loads(args.kernel), ses.kernel)
    quotient = cone_from_dict(json.loads(args.quotient), ses.quotient)
    cone = lex_cone(ses, kernel, quotient)
    result = {"cone": cone_to_dict(cone)}
    if args.word:
        w = _word(ses.total, args.word)
        result["sign"] = "+" if cone.sign(w) > 0 else "-"
    _emit(args, "lex", {"ses": args.ses, "kernel": args.kernel,
                        "quotient": args.quotient, "word": args.word}, result)
    return 0


def _cmd_kernel_decompose(args) -> int:
    ctx = _group(args.group)
    w = _word(ctx, args.word)
    k = kernel_decompose(w)
    _emit(args, "kernel-decompose", {"group": args.group, "word": w.pairs()},
          {"basis": k.serial(), "expanded": expand(k).pairs()})
    return 0


def _cmd_conj_basis(args) -> int:
    ctx = _group(args.group)
    gf, hf = ctx.factors
    g = _word(gf, args.g)
    h = _word(hf, args.h)
    by = _word(ctx, args.by)
    out = conj_basis(ctx, (g, h), by)
    general = kernel_decompose(
        ctx.conj(by, expand(basis_word(ctx, [(g, h, 1)]))))
    _emit(args, "conj-basis",
          {"group": args.group, "g": g.pairs(), "h": h.pairs(), "by": by.pairs()},
          {"basis": out.serial(), "expanded": expand(out).pairs(),
           "agrees_with_decomposition": out == general})
    return 0 if out == general else 1


def _cmd_closure_criterion(args) -> int:
    ctx = _group(args.group)
    gf, hf = ctx.factors
    letters = [(_word(gf, item["g"]), _word(hf, item["h"]), item["e"])
               for item in json.loads(args.letters)]
    k = basis_word(ctx, letters)
    labels = [(_word(gf, item["g"]), _word(hf, item["h"]))
              for item in json.loads(args.labels)]
    res = normal_closure_criterion(k, labels)
    sums = {repr(label): exponent_sum(k, label) for label in labels}
    _emit(args, "closure-criterion",
          {"group": args.group, "letters": args.letters, "labels": args.labels},
          {**res.to_dict(), "label_sums": sums},
          [] if res.consistent else [res.to_dict()["violating"]])
    return 0 if res.consistent else 1


def _amalgam_instance(name: str):
    if name == "square":
        return square_amalgam()
    if name == "free":
        return free_product_amalgam()
    raise LeftOrderError(f"unknown amalgam instance {name!r}")


def _cmd_amalgam_nf(args) -> int:
    oracles = _amalgam_instance(args.instance)
    w = _word(oracles.ctx, args.word)
    form = amalgam_normal_form(w, oracles)
    _emit(args, "amalgam-nf", {"instance": args.instance, "word": w.pairs()},
          {**form.to_dict(), "canonical_word": form.to_word().pairs()})
    return 0


def _cmd_malnormal(args) -> int:
    oracles = _amalgam_instance(args.instance)
    rep = malnormality_check(oracles, args.factor, args.r)
    _emit(args, "malnormal",
          {"instance": args.instance, "factor": args.factor, "r": args.r},
          rep.to_dict(), [] if rep.passed else [rep.to_dict()["witness"]])
    return 0 if rep.passed else 1


def _cmd_census(args) -> int:
    ctx = _group(args.group)
    cap = int(os.environ.get("LEFTORDER_CENSUS_CAP", CENSUS_DOMAIN_CAP))
    gens = None
    if args.ball == "box":
        if not isinstance(ctx, ZPowCtx) or ctx.rank != 2:
            raise LeftOrderError("box ball is a z2 notion")
        gens = tuple(ctx.box_generators())
    cones = enumerate_ball_cones(ctx, args.r, gens=gens, cap=cap)
    result = {"count": len(cones), "digest": census_digest(cones)}
    if args.extend is not None:
        survivors = extendable_filter(cones, args.extend, gens=gens, cap=cap)
        result["survivors"] = {"count": len(survivors),
                               "digest": census_digest(survivors),
                               "cones": [c.serial() for c in survivors]}
    else:
        result["cones"] = [c.serial() for c in cones]
    _emit(args, "census", {"group": args.group, "r": args.r,
                           "extend": args.extend, "ball": args.ball}, result)
    return 0


def _cmd_verify_identities(args) -> int:
    ctx = NAMED_GROUPS["zz-free"]()
    gf, hf = ctx.factors
    rng = random.Random(args.seed)
    failures = []
    for trial in range(args.count):
        i = rng.choice([k for k in range(-args.max_exp, args.max_exp + 1) if k])
        j = rng.choice([k for k in range(-args.max_exp, args.max_exp + 1) if k])
        a_exp = rng.randint(-args.max_exp, args.max_exp)
        b_exp = rng.randint(-args.max_exp, args.max_exp)
        label = (gf.word([("a", i)]), hf.word([("b", j)]))
        for by_pairs in ((("a", a_exp),), (("b", b_exp),),
                         (("a", a_exp), ("b", b_exp))):
            by = ctx.word(list(by_pairs))
            closed = conj_basis(ctx, label, by)
            direct = ctx.conj(by, expand(basis_word(ctx, [(*label, 1)])))
            if expand(closed) != direct:
                failures.append({"trial": trial, "by": by.pairs()})
    _emit(args, "verify-identities",
          {"count": args.count, "seed": args.seed, "max_exp": args.max_exp},
          {"passed": not failures, "trials": args.count}, failures)
    return 0 if not failures else 1


def _cmd_equivariance(args) -> int:
    ses = ses_from_dict(args.ses if args.ses in NAMED_SES
                        else json.loads(args.ses))
    theta = ConstantConeMap(cone_from_dict(json.loads(args.theta_const),
                                           ses.quotient))
    conjugators = _words(ses.total, args.conjugators)
    rng = random.Random(args.seed)
    kernel_cone = cone_from_dict(json.loads(args.kernel), ses.kernel)
    samples = []
    for _ in range(args.samples):
        g = conjugators[rng.randrange(len(conjugators))]
        samples.append((g, kernel_cone))
    rep = equivariance_check(theta, ses, samples, args.r)
    _emit(args, "equivariance",
          {"ses": args.ses, "theta": args.theta_const, "kernel": args.kernel,
           "conjugators": args.conjugators, "samples": args.samples,
           "seed": args.seed, "r": args.r},
          rep.to_dict(), [] if rep.ok else [rep.to_dict()["witness"]])
    return 0 if rep.ok else 1


def _witness_words(ctx: GroupCtx, witnesses, arity: int) -> list:
    """Parse every witness into a tuple of ``arity`` words before any is checked."""
    if not isinstance(witnesses, list):
        raise MalformedWordError(f"witnesses {witnesses!r} are not a list")
    out = []
    for item in witnesses:
        if not isinstance(item, list) or len(item) != arity:
            raise MalformedWordError(
                f"witness {item!r} is not a list of {arity} words")
        out.append(tuple(word_from_pairs(ctx, p) for p in item))
    return out


def _cmd_verify_witness(args) -> int:
    try:
        doc = json.loads(args.report)
    except json.JSONDecodeError:
        with open(args.report) as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("config"), dict):
        raise LeftOrderError("report must be an object with a config object")
    command = doc["command"]
    config = doc["config"]
    # certify reads only the witnesses (and the factor side), so the rebuilt
    # reports carry passed=False and radius 0
    if command == "axioms":
        cone = cone_from_dict(config["cone"])
        rep = check_cone_axioms_on_ball(cone, config["r"])
        ok = rep.to_dict() == doc["result"]
    elif command == "conradian":
        cone = cone_from_dict(config["cone"])
        found = _witness_words(cone.ctx, doc["witnesses"], 2)
        ok = ConradianReport(False, 0, tuple(found)).certify(cone)
    elif command == "convexity":
        cone = cone_from_dict(config["cone"])
        sub = cyclic_subgroup(cone.ctx,
                              word_from_pairs(cone.ctx, config["subgroup"]))
        found = _witness_words(cone.ctx, doc["witnesses"], 3)
        ok = bool(found) and all(ConvexityReport(False, 0, w).certify(cone, sub)
                                 for w in found)
    elif command == "malnormal":
        oracles = _amalgam_instance(config["instance"])
        side = config["factor"]
        found = _witness_words(oracles.ctx, doc["witnesses"], 2)
        ok = bool(found) and all(
            MalnormalityReport(False, 0, side, w).certify(oracles)
            for w in found)
    else:
        raise LeftOrderError(f"no witness verifier for command {command!r}")
    _emit(args, "verify-witness", {"command": command},
          {"reproduced": ok})
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leftorder",
        description="exact computations with left-orderings of countable groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **arguments):
        p = sub.add_parser(name)
        for flag, kwargs in arguments.items():
            p.add_argument("--" + flag.replace("_", "-"), **kwargs)
        p.add_argument("--out", default=None)
        p.set_defaults(handler=handler)
        return p

    add("sign", _cmd_sign,
        group={"default": None}, cone={"required": True},
        word={"required": True})
    add("axioms", _cmd_axioms,
        group={"default": None}, cone={"required": True},
        r={"type": int, "default": 3})
    add("orbit", _cmd_orbit,
        group={"default": None}, cone={"required": True},
        conjugators={"required": True}, strategy={"default": "exact"},
        radius={"type": int, "default": 4},
        max_size={"type": int, "default": 64})
    add("conradian", _cmd_conradian,
        group={"default": None}, cone={"required": True},
        r={"type": int, "default": 4},
        all={"action": "store_true"})
    add("convexity", _cmd_convexity,
        group={"default": None}, cone={"required": True},
        subgroup={"required": True}, r={"type": int, "default": 5})
    add("slope", _cmd_slope,
        group={"default": None}, cone={"required": True},
        r={"type": int, "default": 8})
    add("lex", _cmd_lex,
        ses={"required": True}, kernel={"required": True},
        quotient={"required": True}, word={"default": None})
    add("kernel-decompose", _cmd_kernel_decompose,
        group={"default": "zz-free"}, word={"required": True})
    add("conj-basis", _cmd_conj_basis,
        group={"default": "zz-free"}, g={"required": True},
        h={"required": True}, by={"required": True})
    add("closure-criterion", _cmd_closure_criterion,
        group={"default": "zz-free"}, letters={"required": True},
        labels={"required": True})
    add("amalgam-nf", _cmd_amalgam_nf,
        instance={"default": "square"}, word={"required": True})
    add("malnormal", _cmd_malnormal,
        instance={"default": "square"}, factor={"type": int, "default": 0},
        r={"type": int, "default": 4})
    add("census", _cmd_census,
        group={"required": True}, r={"type": int, "required": True},
        extend={"type": int, "default": None}, ball={"default": "word"})
    add("verify-identities", _cmd_verify_identities,
        count={"type": int, "default": 1000},
        seed={"type": int, "default": 0},
        max_exp={"type": int, "default": 4})
    add("equivariance", _cmd_equivariance,
        ses={"required": True}, theta_const={"required": True},
        kernel={"required": True}, conjugators={"required": True},
        samples={"type": int, "default": 20},
        seed={"type": int, "default": 0}, r={"type": int, "default": 4})
    add("verify-witness", _cmd_verify_witness,
        report={"required": True})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except LeftOrderError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (json.JSONDecodeError, KeyError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

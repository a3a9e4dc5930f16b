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
    AmalgamCtx, MalnormalityReport, amalgam_normal_form, check_amalgam,
    malnormality_check,
)
from .census import (
    CENSUS_DOMAIN_CAP, census_digest, enumerate_ball_cones, extendable_filter,
)
from .cones import check_cone_axioms_on_ball, detect_slope, lex_cone
from .conrad import (
    ConradianReport, ConvexityReport, conradian_check, convexity_check,
    cyclic_subgroup,
)
from .errors import LeftOrderError
from .freeprod import (
    basis_word, check_two_factor, conj_basis, conj_decomposed, expand,
    exponent_sum, kernel_decompose, normal_closure_criterion,
)
from .serialize import (
    cone_from_dict, cone_to_dict, ctx_from_dict, dumps, kernel_letters,
    ses_from_dict, to_json, witness_words, word_from_pairs,
)
from .words import ZPowCtx


def _words(ctx, text: str):
    return [word_from_pairs(ctx, part) for part in text.split(",") if part.strip()]


def _cone(args):
    ctx = ctx_from_dict(args.group) if args.group else None
    return cone_from_dict(json.loads(args.cone), ctx)


def _emit(args, command: str, config: dict, result: dict, witnesses=()) -> None:
    doc = {"command": command, "config": config, "result": result,
           "witnesses": list(witnesses)}
    text = dumps(doc) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommand handlers -----------------------------------------------------------

def _cmd_sign(args) -> int:
    cone = _cone(args)
    w = word_from_pairs(cone.ctx, args.word)
    s = cone.sign(w)
    _emit(args, "sign", {"cone": cone_to_dict(cone), "word": w.pairs()},
          {"sign": "+" if s > 0 else "-"})
    return 0


def _cmd_axioms(args) -> int:
    cone = _cone(args)
    rep = check_cone_axioms_on_ball(cone, args.r)
    _emit(args, "axioms", {"cone": cone_to_dict(cone), "r": args.r},
          to_json(rep), [] if rep.ok else [to_json(rep)])
    return 0 if rep.ok else 1


def _cmd_orbit(args) -> int:
    cone = _cone(args)
    conjugators = _words(cone.ctx, args.conjugators)
    rep = orbit(cone, conjugators, strategy=args.strategy, radius=args.radius,
                max_size=args.max_size)
    _emit(args, "orbit",
          {"cone": cone_to_dict(cone), "conjugators": args.conjugators,
           "strategy": args.strategy, "max_size": args.max_size},
          to_json(rep))
    return 0


def _cmd_conradian(args) -> int:
    cone = _cone(args)
    rep = conradian_check(cone, args.r, collect_all=args.all)
    _emit(args, "conradian", {"cone": cone_to_dict(cone), "r": args.r},
          to_json(rep), to_json(rep.witnesses))
    return 0 if rep.passed else 1


def _cmd_convexity(args) -> int:
    cone = _cone(args)
    gen = word_from_pairs(cone.ctx, args.subgroup)
    sub = cyclic_subgroup(cone.ctx, gen)
    rep = convexity_check(cone, sub, args.r)
    _emit(args, "convexity",
          {"cone": cone_to_dict(cone), "subgroup": gen.pairs(), "r": args.r},
          to_json(rep), [] if rep.passed else [to_json(rep.witness)])
    return 0 if rep.passed else 1


def _cmd_slope(args) -> int:
    cone = _cone(args)
    res = detect_slope(cone, args.r)
    _emit(args, "slope", {"cone": cone_to_dict(cone), "r": args.r},
          to_json(res))
    return 0


def _cmd_lex(args) -> int:
    ses = ses_from_dict(args.ses)
    kernel = cone_from_dict(json.loads(args.kernel), ses.kernel)
    quotient = cone_from_dict(json.loads(args.quotient), ses.quotient)
    cone = lex_cone(ses, kernel, quotient)
    result = {"cone": cone_to_dict(cone)}
    if args.word:
        w = word_from_pairs(ses.total, args.word)
        result["sign"] = "+" if cone.sign(w) > 0 else "-"
    _emit(args, "lex", {"ses": args.ses, "kernel": args.kernel,
                        "quotient": args.quotient, "word": args.word}, result)
    return 0


def _cmd_kernel_decompose(args) -> int:
    w = word_from_pairs(ctx_from_dict(args.group), args.word)
    k = kernel_decompose(w)
    _emit(args, "kernel-decompose", {"group": args.group, "word": w.pairs()},
          {"basis": k.serial(), "expanded": expand(k).pairs()})
    return 0


def _cmd_conj_basis(args) -> int:
    ctx = ctx_from_dict(args.group)
    gf, hf = check_two_factor(ctx).factors
    g = word_from_pairs(gf, args.g)
    h = word_from_pairs(hf, args.h)
    by = word_from_pairs(ctx, args.by)
    out = conj_basis(ctx, (g, h), by)
    general = conj_decomposed(ctx, (g, h), by)
    _emit(args, "conj-basis",
          {"group": args.group, "g": g.pairs(), "h": h.pairs(), "by": by.pairs()},
          {"basis": out.serial(), "expanded": expand(out).pairs(),
           "agrees_with_decomposition": out == general})
    return 0 if out == general else 1


def _cmd_closure_criterion(args) -> int:
    ctx = ctx_from_dict(args.group)
    k = basis_word(ctx, kernel_letters(ctx, json.loads(args.letters)))
    labels = kernel_letters(ctx, json.loads(args.labels), exponent=False)
    res = normal_closure_criterion(k, labels)
    sums = {repr(label): exponent_sum(k, label) for label in labels}
    _emit(args, "closure-criterion",
          {"group": args.group, "letters": args.letters, "labels": args.labels},
          {**to_json(res), "label_sums": sums},
          [] if res.consistent else [to_json(res.violating)])
    return 0 if res.consistent else 1


def _cmd_amalgam_nf(args) -> int:
    ctx = check_amalgam(ctx_from_dict(args.instance))
    # the word is read, and echoed, as spelled in Z * Z on the instance's letters
    w = word_from_pairs(AmalgamCtx((0, 0), ctx.gen_names), args.word)
    core, letters = amalgam_normal_form(ctx, w.syllables)
    _emit(args, "amalgam-nf", {"instance": args.instance, "word": w.pairs()},
          {"core_exp": core, "letters": to_json(letters),
           "factor_length": len(letters),
           "canonical_word": ctx.word(w.syllables).pairs()})
    return 0


def _cmd_malnormal(args) -> int:
    ctx = check_amalgam(ctx_from_dict(args.instance))
    rep = malnormality_check(ctx, args.factor, args.r)
    _emit(args, "malnormal",
          {"instance": args.instance, "factor": args.factor, "r": args.r},
          to_json(rep), [] if rep.passed else [to_json(rep.witness)])
    return 0 if rep.passed else 1


def _cmd_census(args) -> int:
    ctx = ctx_from_dict(args.group)
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
    ctx = ctx_from_dict("zz-free")
    gf, hf = ctx.factors
    rng, m = random.Random(args.seed), args.max_exp
    failures = []
    for trial in range(args.count):
        # nonzero in [-m, m] by one _randbelow(2 m) each, the stream of
        # rng.choice over that list, without building the list
        i, j = (k + (k >= 0) for k in (rng.randrange(-m, m), rng.randrange(-m, m)))
        a_exp, b_exp = rng.randint(-m, m), rng.randint(-m, m)
        label = (gf.word([("a", i)]), hf.word([("b", j)]))
        for by_pairs in ((("a", a_exp),), (("b", b_exp),),
                         (("a", a_exp), ("b", b_exp))):
            by = ctx.word(list(by_pairs))
            if conj_basis(ctx, label, by) != conj_decomposed(ctx, label, by):
                failures.append({"trial": trial, "by": by.pairs()})
    _emit(args, "verify-identities",
          {"count": args.count, "seed": args.seed, "max_exp": args.max_exp},
          {"passed": not failures, "trials": args.count}, failures)
    return 0 if not failures else 1


def _cmd_equivariance(args) -> int:
    ses = ses_from_dict(args.ses)
    theta = ConstantConeMap(cone_from_dict(json.loads(args.theta_const),
                                           ses.quotient))
    conjugators = _words(ses.total, args.conjugators)
    if args.samples and not conjugators:
        raise LeftOrderError("--conjugators is empty: no conjugator to sample")
    rng = random.Random(args.seed)
    kernel_cone = cone_from_dict(json.loads(args.kernel), ses.kernel)
    samples = ((conjugators[rng.randrange(len(conjugators))], kernel_cone)
               for _ in range(args.samples))
    rep = equivariance_check(theta, ses, samples, args.r)
    _emit(args, "equivariance",
          {"ses": args.ses, "theta": args.theta_const, "kernel": args.kernel,
           "conjugators": args.conjugators, "samples": args.samples,
           "seed": args.seed, "r": args.r},
          to_json(rep), [] if rep.ok else [to_json(rep.witness)])
    return 0 if rep.ok else 1


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
        r = config.get("r")
        if type(r) is not int or r < 0:
            raise LeftOrderError(f"config r {r!r} is not a natural number")
        ok = to_json(check_cone_axioms_on_ball(cone, r)) == doc["result"]
    elif command == "conradian":
        cone = cone_from_dict(config["cone"])
        found = witness_words(cone.ctx, doc["witnesses"], 2)
        ok = ConradianReport(False, 0, tuple(found)).certify(cone)
    elif command == "convexity":
        cone = cone_from_dict(config["cone"])
        sub = cyclic_subgroup(cone.ctx,
                              word_from_pairs(cone.ctx, config["subgroup"]))
        found = witness_words(cone.ctx, doc["witnesses"], 3)
        ok = bool(found) and all(ConvexityReport(False, 0, w).certify(cone, sub)
                                 for w in found)
    elif command == "malnormal":
        ctx = check_amalgam(ctx_from_dict(config["instance"]))
        side = config["factor"]
        if type(side) is not int or side not in (0, 1):
            raise LeftOrderError(f"config factor {side!r} is not 0 or 1")
        found = witness_words(ctx, doc["witnesses"], 2)
        ok = bool(found) and all(
            MalnormalityReport(False, 0, side, w).certify(ctx) for w in found)
    else:
        raise LeftOrderError(f"no witness verifier for command {command!r}")
    _emit(args, "verify-witness", {"command": command},
          {"reproduced": ok})
    return 0 if ok else 1


def _int_from(low: int):
    """argparse type for an integer flag that must be at least ``low``."""
    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"{text} is below {low}")
        return int(text)
    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


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
        r={"type": _int_from(0), "default": 3})
    add("orbit", _cmd_orbit,
        group={"default": None}, cone={"required": True},
        conjugators={"required": True}, strategy={"default": "exact"},
        radius={"type": _int_from(0), "default": 4},
        max_size={"type": _int_from(0), "default": 64})
    add("conradian", _cmd_conradian,
        group={"default": None}, cone={"required": True},
        r={"type": _int_from(0), "default": 4},
        all={"action": "store_true"})
    add("convexity", _cmd_convexity,
        group={"default": None}, cone={"required": True},
        subgroup={"required": True}, r={"type": _int_from(0), "default": 5})
    add("slope", _cmd_slope,
        group={"default": None}, cone={"required": True},
        r={"type": _int_from(0), "default": 8})
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
        instance={"default": "square"},
        factor={"type": int, "choices": (0, 1), "default": 0},
        r={"type": _int_from(0), "default": 4})
    add("census", _cmd_census,
        group={"required": True}, r={"type": _int_from(0), "required": True},
        extend={"type": _int_from(0), "default": None}, ball={"default": "word"})
    add("verify-identities", _cmd_verify_identities,
        count={"type": _int_from(0), "default": 1000},
        seed={"type": int, "default": 0},
        max_exp={"type": _int_from(1), "default": 4})
    add("equivariance", _cmd_equivariance,
        ses={"required": True}, theta_const={"required": True},
        kernel={"required": True}, conjugators={"required": True},
        samples={"type": _int_from(0), "default": 20},
        seed={"type": int, "default": 0}, r={"type": _int_from(0), "default": 4})
    add("verify-witness", _cmd_verify_witness,
        report={"required": True})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (LeftOrderError, json.JSONDecodeError, KeyError, ValueError,
            OSError, RecursionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

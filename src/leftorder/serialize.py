"""JSON round-trips for contexts, words, short exact sequences and cones."""

from __future__ import annotations

from .cones import (
    Cone, ConjugateCone, DynamicalCone, KleinCone, LexCone, QuadSlopeCone,
    RestrictionCone, SlopeCone, ZSignCone, cyclic_embedding, dynamical_cone,
    lex_cone, quad_slope_cone, ses_kernel_embedding, slope_cone, z_cone,
)
from .errors import MalformedWordError
from .surd import QuadNum, mat2, quad
from .words import (
    DirectProductCtx, FreeCtx, FreeProductCtx, GroupCtx, KleinCtx,
    SemidirectCtx, ShortExactSeq, Word, ZPowCtx, direct_product_ses,
    semidirect_ses,
)


def ctx_from_dict(d: dict) -> GroupCtx:
    fam = d["family"]
    if fam == "free":
        return FreeCtx(d["rank"], tuple(d.get("gens") or ()))
    if fam == "zpow":
        return ZPowCtx(d["rank"], tuple(d.get("gens") or ()))
    if fam == "klein":
        return KleinCtx(tuple(d.get("gens") or ("x", "y")))
    if fam == "free_product":
        return FreeProductCtx(tuple(ctx_from_dict(f) for f in d["factors"]))
    if fam == "direct_product":
        return DirectProductCtx(tuple(ctx_from_dict(f) for f in d["factors"]))
    if fam == "semidirect":
        return SemidirectCtx(mat2(d["matrix"]),
                             tuple(d.get("gens") or ("a", "b", "t")))
    raise MalformedWordError(f"unknown family {fam!r}")


def word_from_pairs(ctx: GroupCtx, pairs) -> Word:
    return ctx.word([(g, e) for g, e in pairs])


NAMED_SES = {
    "sol": {"type": "semidirect", "matrix": [[2, 1], [1, 1]]},
    "zxf2": {"type": "direct_product",
             "factors": [{"family": "zpow", "rank": 1, "gens": ["z"]},
                         {"family": "free", "rank": 2, "gens": ["a", "b"]}],
             "kernel_factor": 0},
    "zxklein": {"type": "direct_product",
                "factors": [{"family": "zpow", "rank": 1, "gens": ["z"]},
                            {"family": "klein", "gens": ["x", "y"]}],
                "kernel_factor": 0},
}


def ses_to_dict(ses: ShortExactSeq) -> dict:
    kind = ses.descriptor[0]
    if kind == "semidirect":
        return {"type": "semidirect", "matrix": ses.total.matrix.rows(),
                "gens": list(ses.total.gen_names)}
    if kind == "direct_product":
        return {"type": "direct_product",
                "factors": [f.descriptor() for f in ses.total.factors],
                "kernel_factor": ses.descriptor[1]}
    raise MalformedWordError(f"unknown ses kind {kind!r}")


def ses_from_dict(d) -> ShortExactSeq:
    if isinstance(d, str):
        d = NAMED_SES[d]
    if d["type"] == "semidirect":
        ctx = SemidirectCtx(mat2(d["matrix"]),
                            tuple(d.get("gens") or ("a", "b", "t")))
        return semidirect_ses(ctx)
    if d["type"] == "direct_product":
        ctx = DirectProductCtx(tuple(ctx_from_dict(f) for f in d["factors"]))
        return direct_product_ses(ctx, d.get("kernel_factor", 0))
    raise MalformedWordError(f"unknown ses type {d['type']!r}")


def _quad_from_list(v) -> QuadNum:
    p, q, r, d = v
    return quad(p, q, r, d)


def cone_to_dict(c: Cone) -> dict:
    """Complete descriptor, sufficient to rebuild the cone."""
    if isinstance(c, (SlopeCone, QuadSlopeCone, ZSignCone, KleinCone,
                      DynamicalCone)):
        return {**c.descriptor(), "ctx": c.ctx.descriptor()}
    if isinstance(c, LexCone):
        return {"kind": "lex", "ses": ses_to_dict(c.ses),
                "kernel": cone_to_dict(c.kernel_cone),
                "quotient": cone_to_dict(c.quotient_cone)}
    if isinstance(c, ConjugateCone):
        return {"kind": "conjugate", "by": c.by.pairs(),
                "base": cone_to_dict(c.base)}
    if isinstance(c, RestrictionCone):
        tag = c.embedding.tag
        if tag and tag[0] == "ses_kernel":
            emb = {"type": "ses_kernel"}
        elif tag and tag[0] == "cyclic":
            emb = {"type": "cyclic", "word": tag[1].pairs()}
        else:
            raise MalformedWordError("opaque embedding cannot be serialized")
        return {"kind": "restriction", "embedding": emb,
                "base": cone_to_dict(c.base)}
    raise MalformedWordError(f"cone {c!r} has no serialized form")


def cone_from_dict(d: dict, ctx: GroupCtx | None = None) -> Cone:
    """Rebuild a cone; ``ctx`` supplies the context when the dict omits it."""
    kind = d["kind"]
    if "ctx" in d:
        ctx = ctx_from_dict(d["ctx"])
    if kind == "slope":
        return slope_cone(tuple(d["a"]), d["variant"], ctx or ZPowCtx(2))
    if kind == "quad_slope":
        a = tuple(_quad_from_list(v) for v in d["a"])
        return quad_slope_cone(a, d["sign"], ctx or ZPowCtx(2))
    if kind == "zsign":
        return z_cone(d.get("sign", 1) > 0, ctx or ZPowCtx(1))
    if kind == "klein":
        return KleinCone(ctx or KleinCtx(), d["ex"], d["ey"])
    if kind == "lex":
        ses = ses_from_dict(d["ses"])
        return lex_cone(ses, cone_from_dict(d["kernel"], ses.kernel),
                        cone_from_dict(d["quotient"], ses.quotient))
    if kind == "dynamical":
        base = dynamical_cone(ctx if isinstance(ctx, FreeCtx) else None)
        if "images" not in d:
            return base
        return DynamicalCone(base.ctx,
                             tuple(mat2(m) for m in d["images"]),
                             tuple(_quad_from_list(b) for b in d["basepoints"]))
    if kind == "conjugate":
        base = cone_from_dict(d["base"], ctx)
        return ConjugateCone(base, word_from_pairs(base.ctx, d["by"]))
    if kind == "restriction":
        base = cone_from_dict(d["base"], ctx)
        emb = d["embedding"]
        if emb["type"] == "ses_kernel":
            if not isinstance(base, LexCone):
                raise MalformedWordError("ses_kernel restriction needs a lex base")
            return RestrictionCone(base, ses_kernel_embedding(base.ses))
        if emb["type"] == "cyclic":
            w = word_from_pairs(base.ctx, emb["word"])
            return RestrictionCone(base, cyclic_embedding(base.ctx, w))
        raise MalformedWordError(f"unknown embedding type {emb['type']!r}")
    raise MalformedWordError(f"unknown cone kind {kind!r}")

"""The one JSON codec for contexts, words, short exact sequences, cones and results.

Every CLI input is read here: groups (``ctx_from_dict``, a name, JSON text or
an object), short exact sequences (``ses_from_dict``), words
(``word_from_pairs``, pairs or their text), cones (``cone_from_dict``),
kernel letters and labels (``kernel_letters``) and report witnesses
(``witness_words``).  Readers check each shape and raise ``LeftOrderError``
on a bad one.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass

from .amalgam import AmalgamCtx
from .cones import (
    Cone, ConjugateCone, DynamicalCone, KleinCone, LexCone,
    QuadSlopeCone, RestrictionCone, Slope, SlopeCone, ZSignCone, cyclic_embedding,
    dynamical_cone, lex_cone, quad_slope_cone, ses_kernel_embedding,
    slope_cone, z_cone,
)
from .errors import LeftOrderError, MalformedWordError
from .freeprod import check_two_factor
from .surd import Mat2, QuadNum, mat2, quad
from .words import (
    BALL_ELEMENT_CAP, DirectProductCtx, FreeCtx, FreeProductCtx, GroupCtx,
    KleinCtx, SemidirectCtx, ShortExactSeq, Word, ZPowCtx, direct_product_ses,
    semidirect_ses,
)


# radicands read from JSON go through trial division in ``quad``
SURD_RADICAND_CAP = 10 ** 6


def _need(ok: bool, what: str, *args) -> None:
    """Raise ``what.format(*args)`` unless ``ok``; the message is built only then."""
    if not ok:
        raise LeftOrderError(what.format(*args))


def _list(v, n: int | None, what: str, of: type | None = None):
    """``v``, when it is a list of ``n`` items (any number for None) of type ``of``."""
    _need(isinstance(v, (list, tuple)) and n in (None, len(v))
          and all(of is None or type(x) is of for x in v),
          "{} {!r} has the wrong shape", what, v)
    return v


def _mat(rows) -> Mat2:
    return mat2([_list(row, 2, "matrix row", int) for row in _list(rows, 2, "matrix")])


def _quad(v) -> QuadNum:
    p, q, r, d = _list(v, 4, "surd [p, q, r, d]", int)
    _need(r != 0 and 0 <= d <= SURD_RADICAND_CAP,
          "surd {!r} needs r != 0 and 0 <= d <= {}", v, SURD_RADICAND_CAP)
    return quad(p, q, r, d)


def _names(d: dict, count: int) -> tuple:
    """The ``gens`` of a group descriptor: none, or ``count`` distinct strings."""
    names = _list(d.get("gens") or (), None, "gens", str)
    _need(len(names) in (0, count) and len(set(names)) == len(names),
          "gens {!r} are not {} distinct names", names, count)
    return tuple(names)


def ctx_from_dict(d) -> GroupCtx:
    """Group from a name in ``NAMED_GROUPS``, JSON text, or an object with a ``family``."""
    if isinstance(d, str):
        return ctx_from_dict(NAMED_GROUPS[d] if d in NAMED_GROUPS else json.loads(d))
    _need(isinstance(d, dict), "group descriptor {!r} is not an object", d)
    fam = d.get("family")
    if fam in ("free", "zpow"):
        rank = d.get("rank")
        _need(type(rank) is int and rank >= 0, "rank {!r} is not a natural number", rank)
        names = _names(d, rank)
        _need(names or rank <= (8 if fam == "free" else BALL_ELEMENT_CAP),
              "a {} group of rank {} needs its gens named", fam, rank)
        return (FreeCtx if fam == "free" else ZPowCtx)(rank, names)
    if fam == "klein":
        return KleinCtx(_names(d, 2) or ("x", "y"))
    if fam in ("free_product", "direct_product"):
        factors = _list(d.get("factors"), None, "factors")
        cls = FreeProductCtx if fam == "free_product" else DirectProductCtx
        return cls(tuple(map(ctx_from_dict, factors)))
    if fam == "semidirect":
        return SemidirectCtx(_mat(d.get("matrix")),
                             _names(d, 3) or ("a", "b", "t"))
    if fam == "amalgam":
        return AmalgamCtx(tuple(_list(d.get("weights"), 2, "weights", int)),
                          _names(d, 2) or ("a", "b"))
    raise LeftOrderError(f"unknown family {fam!r}")


def word_from_pairs(ctx: GroupCtx, pairs) -> Word:
    """Word from JSON pairs [name-or-index, exponent], or from text: the pairs
    as JSON, ``1`` or nothing for the identity, or tokens ``a^2*b^-1``."""
    if isinstance(pairs, str):
        text = pairs.strip()
        if text in ("1", ""):
            return ctx.identity()
        pairs = json.loads(text) if text.startswith("[") else [
            (name, int(exp) if caret else 1) for name, caret, exp in
            (token.partition("^") for token in text.replace("*", " ").split())]
    if not isinstance(pairs, (list, tuple)):
        raise MalformedWordError(f"word {pairs!r} is not a list of pairs")
    for p in pairs:
        if (not isinstance(p, (list, tuple)) or len(p) != 2
                or not (isinstance(p[0], str) or type(p[0]) is int)
                or type(p[1]) is not int):
            raise MalformedWordError(
                f"syllable {p!r} is not a [generator, integer exponent] pair")
    return ctx.word([(g, e) for g, e in pairs])


def witness_words(ctx: GroupCtx, witnesses, arity: int) -> list:
    """Every witness of a report as ``arity`` words, all read before any is checked."""
    return [tuple(word_from_pairs(ctx, w) for w in _list(item, arity, "witness"))
            for item in _list(witnesses, None, "witnesses")]


def kernel_letters(ctx: GroupCtx, items, exponent: bool = True) -> list:
    """Kernel letters ``{"g", "h", "e"}``, as ``KernelBasisWord.serial`` writes
    them, or with ``exponent=False`` labels ``{"g", "h"}``."""
    gf, hf = check_two_factor(ctx).factors
    what = "words g, h and an integer e" if exponent else "words g and h"
    for x in _list(items, None, "letters"):
        _need(isinstance(x, dict) and "g" in x and "h" in x
              and (not exponent or type(x.get("e")) is int), "letter {!r} needs {}", x, what)
    return [(word_from_pairs(gf, x["g"]), word_from_pairs(hf, x["h"]))
            + ((x["e"],) if exponent else ()) for x in items]


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

# the extension groups are the totals of the named sequences
NAMED_GROUPS = {
    "klein": {"family": "klein"},
    "z": {"family": "zpow", "rank": 1},
    "z2": {"family": "zpow", "rank": 2},
    "f2": {"family": "free", "rank": 2},
    "zz-free": {"family": "free_product", "factors": [
        {"family": "zpow", "rank": 1, "gens": [name]} for name in "ab"]},
    # <a, b | a^p = b^q>: Z * Z, the Klein bottle group, the trefoil group
    "free": {"family": "amalgam", "weights": [0, 0]},
    "square": {"family": "amalgam", "weights": [2, 2]},
    "trefoil": {"family": "amalgam", "weights": [2, 3]},
    **{name: {**d, "family": d["type"]} for name, d in NAMED_SES.items()},
}


def ses_to_dict(ses: ShortExactSeq, full: bool = True):
    """The total group's object, ``family`` renamed ``type``; or the tag list."""
    if not full:
        return list(ses.descriptor)
    kind, *kernel_factor = ses.descriptor
    d = {"type": kind, **ses.total.descriptor()}
    del d["family"]
    if kernel_factor:
        d["kernel_factor"] = kernel_factor[0]
    return d


def ses_from_dict(d) -> ShortExactSeq:
    """SES from a name in ``NAMED_SES``, JSON text, or an object with a ``type``."""
    if isinstance(d, str):
        return ses_from_dict(NAMED_SES[d] if d in NAMED_SES else json.loads(d))
    _need(isinstance(d, dict), "ses descriptor {!r} is not an object", d)
    kind = d.get("type")
    _need(kind in ("semidirect", "direct_product"), "unknown ses type {!r}", kind)
    ctx = ctx_from_dict({**d, "family": kind})  # reads only the group's keys
    if kind == "semidirect":
        return semidirect_ses(ctx)
    return direct_product_ses(ctx, d.get("kernel_factor", 0))


def cone_to_dict(c: Cone, full: bool = True) -> dict:
    """The JSON form of a cone.

    ``full=True`` is the form that CLI configs echo and ``cone_from_dict``
    reads back: every leaf carries its ``ctx`` and an SES is an object.
    ``full=False`` is the form of orbit representatives and restricted
    samples: no ``ctx``, and an SES is its tag list.
    """
    if isinstance(c, LexCone):
        return {"kind": "lex", "ses": ses_to_dict(c.ses, full),
                "kernel": cone_to_dict(c.kernel_cone, full),
                "quotient": cone_to_dict(c.quotient_cone, full)}
    if isinstance(c, ConjugateCone):
        return {"kind": "conjugate", "by": c.by.pairs(),
                "base": cone_to_dict(c.base, full)}
    if isinstance(c, RestrictionCone):
        tag = c.embedding.tag
        if tag and tag[0] == "ses_kernel":
            emb = {"type": "ses_kernel"}
            if not full:  # the full form reads the SES back from the lex base
                emb["ses"] = ses_to_dict(tag[1], False)
        elif tag and tag[0] == "cyclic":
            emb = {"type": "cyclic", "word": tag[1].pairs()}
        elif full:
            raise LeftOrderError("opaque embedding cannot be serialized")
        else:
            emb = {"type": "opaque"}
        return {"kind": "restriction", "embedding": emb,
                "base": cone_to_dict(c.base, full)}
    if isinstance(c, SlopeCone):
        d = {"kind": "slope", "a": to_json(c.a), "variant": c.variant}
    elif isinstance(c, QuadSlopeCone):
        d = {"kind": "quad_slope", "a": to_json(c.a),
             "sign": "+" if c.positive_side > 0 else "-"}
    elif isinstance(c, ZSignCone):
        d = {"kind": "zsign", "sign": c.positive_side}
    elif isinstance(c, KleinCone):
        d = {"kind": "klein", "ex": c.ex, "ey": c.ey}
    elif isinstance(c, DynamicalCone):
        d = {"kind": "dynamical", "images": [m.rows() for m in c.images],
             "basepoints": to_json(c.basepoints)}
    else:
        raise LeftOrderError(f"cone {c!r} has no serialized form")
    if full:
        d["ctx"] = c.ctx.descriptor()
    return d


def to_json(v):
    """The JSON form of a result: a word is its pairs, a surd ``[p, q, r, d]``,
    a cone its compact form, a slope ``{"rational": ...}`` or ``{"surd": ...}``,
    any other dataclass a dict of its fields; containers go item by item."""
    if isinstance(v, Word):
        return v.pairs()
    if isinstance(v, QuadNum):
        return [v.p, v.q, v.r, v.d]
    if isinstance(v, Cone):
        return cone_to_dict(v, False)
    if isinstance(v, Slope):
        return ({"rational": to_json(v.vec)} if v.is_rational()
                else {"surd": to_json(v.direction)})
    if is_dataclass(v):
        return {f.name: to_json(getattr(v, f.name)) for f in fields(v)}
    if isinstance(v, dict):
        return {k: to_json(x) for k, x in v.items()}
    if isinstance(v, (tuple, list)):
        return [to_json(x) for x in v]
    return v


_string = json.encoder.encode_basestring_ascii  # the C escaper json uses
_CONTAINERS = (list, tuple, dict)


def _repeated(doc) -> set[int]:
    """Ids of the lists, tuples and dicts that ``doc`` reaches more than once."""
    seen: set[int] = set()
    again: set[int] = set()
    stack = [doc] if isinstance(doc, _CONTAINERS) else []
    while stack:
        o = stack.pop()
        for x in (o.values() if isinstance(o, dict) else o):
            if isinstance(x, _CONTAINERS):
                if id(x) in seen:
                    again.add(id(x))
                else:
                    seen.add(id(x))
                    stack.append(x)
    return again


def _key(k) -> str:
    """A dict key as ``json`` writes it: a string, or a scalar's text quoted."""
    if isinstance(k, str):
        return _string(k)
    if isinstance(k, (int, float)) or k is None:
        return _string(json.dumps(k))
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def dumps(doc) -> str:
    """Exactly ``json.dumps(doc, sort_keys=True, indent=2)``, written faster.

    With an indent the standard library chains generators in pure Python;
    this joins strings instead.  A list, tuple or dict that ``doc`` reaches
    more than once is written once per indent and its text reused, so a
    census item shared by many cones costs one encoding.  Every cycle
    passes through such an object, so cycles are caught there
    (``ValueError``, as in ``json``).
    """
    repeated = _repeated(doc)
    memo: dict[tuple[int, str], str] = {}
    open_ids: set[int] = set()

    def value(o, pad: str) -> str:
        if type(o) is str:
            return _string(o)
        if type(o) is int:
            return repr(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, _CONTAINERS):
            return container(o, pad)
        return json.dumps(o)  # floats, str and int subclasses; TypeError

    def container(o, pad: str) -> str:
        shared = id(o) in repeated
        if shared:
            text = memo.get((id(o), pad))
            if text is not None:
                return text
            if id(o) in open_ids:
                raise ValueError("Circular reference detected")
            open_ids.add(id(o))
        inner = pad + "  "
        keys = None
        values = o
        if isinstance(o, dict):
            items = sorted(o.items())
            keys = [_string(k) if type(k) is str else _key(k) for k, _ in items]
            values = [v for _, v in items]
        parts = []
        for x in values:  # a loop, not a comprehension: one frame per level, as in json
            t = type(x)
            parts.append(_string(x) if t is str else repr(x) if t is int
                         else container(x, inner) if t in _CONTAINERS
                         else value(x, inner))
        if keys is None:
            text = ("[" + inner + ("," + inner).join(parts) + pad + "]"
                    if parts else "[]")
        else:
            text = ("{" + inner + ("," + inner).join(
                [k + ": " + v for k, v in zip(keys, parts)]) + pad + "}"
                if parts else "{}")
        if shared:
            memo[id(o), pad] = text
            open_ids.discard(id(o))
        return text

    return value(doc, "\n")


def cone_from_dict(d: dict, ctx: GroupCtx | None = None) -> Cone:
    """Rebuild a cone; ``ctx`` supplies the context when the dict omits it."""
    _need(isinstance(d, dict), "cone descriptor {!r} is not an object", d)
    kind = d["kind"]
    if "ctx" in d:
        ctx = ctx_from_dict(d["ctx"])
    if kind == "slope":
        return slope_cone(tuple(_list(d["a"], 2, "slope a", int)), d["variant"], ctx)
    if kind == "quad_slope":
        a = tuple(map(_quad, _list(d["a"], 2, "quad_slope a")))
        return quad_slope_cone(a, d["sign"], ctx)
    if kind == "zsign":
        sign = d.get("sign", 1)
        _need(type(sign) is int and sign != 0, "sign {!r} is not a nonzero integer", sign)
        return z_cone(sign > 0, ctx)
    if kind == "klein":
        return KleinCone(ctx or KleinCtx(), d["ex"], d["ey"])
    if kind == "lex":
        ses = ses_from_dict(d["ses"])
        return lex_cone(ses, cone_from_dict(d["kernel"], ses.kernel),
                        cone_from_dict(d["quotient"], ses.quotient))
    if kind == "dynamical":
        if "images" not in d:
            return dynamical_cone(ctx)
        return DynamicalCone(
            ctx or FreeCtx(2), tuple(map(_mat, _list(d["images"], None, "images"))),
            tuple(map(_quad, _list(d["basepoints"], None, "basepoints"))))
    if kind == "conjugate":
        base = cone_from_dict(d["base"], ctx)
        return ConjugateCone(base, word_from_pairs(base.ctx, d["by"]))
    if kind == "restriction":
        base = cone_from_dict(d["base"], ctx)
        emb = d["embedding"]
        _need(isinstance(emb, dict), "embedding {!r} is not an object", emb)
        if emb.get("type") == "ses_kernel":
            _need(isinstance(base, LexCone), "ses_kernel restriction needs a lex base")
            return RestrictionCone(base, ses_kernel_embedding(base.ses))
        if emb.get("type") == "cyclic":
            w = word_from_pairs(base.ctx, emb["word"])
            return RestrictionCone(base, cyclic_embedding(base.ctx, w))
        raise LeftOrderError(f"unknown embedding type {emb.get('type')!r}")
    raise LeftOrderError(f"unknown cone kind {kind!r}")

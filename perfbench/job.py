"""Run one ``leftorder`` CLI job in this fresh interpreter and report on it.

Usage: python3 perfbench/job.py '<request json>'   (from the repository root,
with ``src`` on PYTHONPATH).  The request holds ``argv``, ``trace`` (bool)
and ``spans_out`` (a file for the raw spans, or null).

The parent records the clock just before it starts this process; ``ready``
below is read once ``leftorder.cli`` is imported and its parser built, so
the difference is the set-up a CLI user pays.  time.monotonic is
CLOCK_MONOTONIC on Linux, which is shared by every process on the host.

Prints one JSON object: ready, exit code (null if the job raised), error,
main_s (in-process time of cli.main), stdout, maxrss_kb and, when traced,
the per-layer aggregates.
"""

import time
import sys

from leftorder import cli

cli.build_parser()
READY = time.monotonic()

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402


class Tracer:
    """In-memory spans (name, start, end, parent) around wrapped functions.

    Spans sit in flat arrays so that millions of them stay cheap; they are
    aggregated, and optionally written out, after the job has finished.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = {}

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, label: str, fn, after=None):
        """A stand-in for ``fn`` that records one span per call.

        ``after(result, args)`` runs outside the span, for counters that
        need the call's result.
        """
        if label not in self.names:
            self.names.append(label)
        nid = self.names.index(label)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, clock = self.stack, time.monotonic

        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def aggregate(self) -> dict:
        """Per label: calls, self_s (minus child spans), total_s (outermost)."""
        n = len(self.name)
        child = [0.0] * n
        start, end, parent, name = self.start, self.end, self.parent, self.name
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        stats = [[0, 0.0, 0.0] for _ in self.names]
        active = [0] * len(self.names)
        open_spans: list[int] = []
        for i in range(n):
            p = parent[i]
            while open_spans and open_spans[-1] != p:
                active[name[open_spans.pop()]] -= 1
            k = name[i]
            d = end[i] - start[i]
            st = stats[k]
            st[0] += 1
            st[1] += d - child[i]
            if not active[k]:
                st[2] += d
            active[k] += 1
            open_spans.append(i)
        out = {}
        for label, (calls, self_s, total_s) in zip(self.names, stats):
            out[label + ".calls"] = calls
            out[label + ".self_s"] = self_s
            out[label + ".total_s"] = total_s
        out.update(self.counters)
        return out

    def write(self, path: str) -> None:
        """Header line {names, count}, then the name, parent, start and end arrays."""
        with open(path, "wb") as fh:
            head = {"names": self.names, "count": len(self.name),
                    "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
            fh.write((json.dumps(head) + "\n").encode())
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def _replace(fn, traced) -> None:
    """Point every leftorder module global bound to ``fn`` at ``traced``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "leftorder" or mod_name.startswith("leftorder."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, traced)


def install(tracer: Tracer, stdout: io.StringIO) -> None:
    """Wrap each layer's public functions where defined and where imported."""
    from leftorder import (actions, amalgam, census, cones, conrad, freeprod,
                           serialize, surd, words)

    functions = {
        "surd": (surd, ["sign_int_surd", "quad_cmp"]),
        "cones": (cones, ["check_cone_axioms_on_ball", "detect_slope"]),
        "conrad": (conrad, ["conradian_check", "convexity_check",
                            "cyclic_subgroup"]),
        "actions": (actions, ["orbit", "cone_equal", "conj_cone"]),
        "freeprod": (freeprod, ["kernel_decompose", "expand", "conj_basis"]),
        "amalgam": (amalgam, ["amalgam_normal_form", "malnormality_check"]),
        "census": (census, ["enumerate_ball_cones", "extendable_filter",
                            "census_digest"]),
        "serialize": (serialize, ["cone_from_dict", "word_from_pairs"]),
    }

    def ball_size(result, args):
        tracer.count("words.ball.elements", len(result))

    def enumerated(result, args):
        tracer.count("census.cones_enumerated", len(result))

    def filtered(result, args):
        tracer.count("census.cones_tried", len(args[0]))
        tracer.count("census.cones_extended", len(result))

    after = {"words.ball": ball_size,
             "census.enumerate_ball_cones": enumerated,
             "census.extendable_filter": filtered}
    for key in ("words.ball.elements", "census.cones_enumerated",
                "census.cones_tried", "census.cones_extended",
                "cli.emit.bytes"):
        tracer.count(key, 0)

    for layer, (mod, names) in functions.items():
        for attr in names:
            label = f"{layer}.{attr}"
            fn = getattr(mod, attr)
            _replace(fn, tracer.wrap(label, fn, after.get(label)))
    methods = [(words.GroupCtx, "words", ["mul", "inv", "word", "normalize",
                                          "ball"]),
               (cones.Cone, "cones", ["sign"])]
    for cls, layer, names in methods:
        for attr in names:
            label = f"{layer}.{attr}"
            setattr(cls, attr, tracer.wrap(label, cls.__dict__[attr],
                                           after.get(label)))
    # overridden on two subclasses: wrap each class's own definition
    for cls in (cones.Cone, cones.DynamicalCone, cones.ConjugateCone):
        cls.sign_of_product = tracer.wrap("cones.sign_of_product",
                                          cls.__dict__["sign_of_product"])

    emit = cli._emit

    def counted_emit(*args, **kwargs):
        before = stdout.tell()
        emit(*args, **kwargs)
        tracer.count("cli.emit.bytes", stdout.tell() - before)

    cli._emit = tracer.wrap("cli.emit", counted_emit)
    cli.main = tracer.wrap("cli.main", cli.main)


def main() -> None:
    request = json.loads(sys.argv[1])
    stdout = io.StringIO()
    tracer = Tracer() if request["trace"] else None
    if tracer is not None:
        install(tracer, stdout)
    report = {"ready": READY, "exit": None, "error": None}
    real_stdout, sys.stdout = sys.stdout, stdout
    try:
        t0 = time.monotonic()
        report["exit"] = cli.main(request["argv"])
        report["main_s"] = time.monotonic() - t0
    except SystemExit as exc:
        report["error"] = f"SystemExit({exc.code!r})"
    except Exception:  # a crash is a failed job, reported to run.py
        report["error"] = traceback.format_exc()
    finally:
        sys.stdout = real_stdout
    report["stdout"] = stdout.getvalue()
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        report["layers"] = tracer.aggregate()
        if request.get("spans_out"):
            tracer.write(request["spans_out"])
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()

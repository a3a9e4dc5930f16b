"""Benchmark runner for the ``leftorder`` CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

A run cycles through the workload's job list, one job process at a time,
for at most ``--seconds`` (and at least once through the list).  Each job
runs in a fresh interpreter, so the ball cache starts cold as it does for
a CLI user.
Every job's output is checked on every repetition.  The last stdout line
is {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones from
traced job processes, each followed by an untraced run of the same job;
those give trace.overhead_frac.  A record of the run, with the host it ran
on, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS, run_checks  # noqa: E402

JOB_SCRIPT = "perfbench/job.py"
OUT_DIR = Path("perfbench/out")
JOB_TIMEOUT_S = 150
WARM_ARGV = ["sign", "--cone", '{"kind":"zsign","sign":1}', "--word", "e1"]

SPEC = json.loads(Path("BENCHMARK.json").read_text()) if Path(
    "BENCHMARK.json").is_file() else None


def host_record() -> dict:
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "commit": git_commit()}


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def job_env() -> dict:
    env = dict(os.environ)
    # the warm-up job compiles bytecode once, as an installed CLI has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str((OUT_DIR / "pycache").resolve())
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "0"  # same dict and set layouts in every job
    env.pop("LEFTORDER_CENSUS_CAP", None)
    return env


def spawn(request: dict, env: dict) -> tuple[float, dict]:
    """Run job.py once; returns (spawn time, its report)."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, JOB_SCRIPT, json.dumps(request)],
                          env=env, capture_output=True, text=True,
                          timeout=JOB_TIMEOUT_S)
    if proc.returncode != 0:
        return t0, {"exit": None, "error": proc.stderr[-2000:] or
                    f"job process exited {proc.returncode}"}
    return t0, json.loads(proc.stdout)


class Run:
    """Every execution of a workload's jobs in one benchmark run."""

    def __init__(self, jobs, seed: int, env: dict):
        self.jobs = jobs
        self.seed = seed
        self.env = env
        self.attempted = 0
        self.failures: list[dict] = []
        self.setup: list[float] = []
        self.rss_kb: list[int] = []
        self.main_s = {False: {j.name: [] for j in jobs},
                       True: {j.name: [] for j in jobs}}
        self.layers: dict[str, list[dict]] = {j.name: [] for j in jobs}

    def run_job(self, job, trace: bool, spans_out: str | None = None) -> None:
        """Run ``job`` once in a fresh process, check it and record it."""
        request = {"argv": job.argv, "trace": trace, "spans_out": spans_out}
        t0, rep = spawn(request, self.env)
        self.attempted += 1
        if rep["error"]:
            failed = [rep["error"].strip().splitlines()[-1]]
        else:
            failed = run_checks(job, self.seed, rep["exit"], rep["stdout"])
            self.main_s[trace][job.name].append(rep["main_s"])
            if trace:
                self.layers[job.name].append(rep["layers"])
            else:
                self.setup.append(rep["ready"] - t0)
                self.rss_kb.append(rep["maxrss_kb"])
        if failed:
            self.failures.append({"job": job.name, "failed": failed})

    def wall_s(self, trace: bool) -> float:
        """Sum over jobs of each job's median cli.main time."""
        return sum(statistics.median(v) for v in self.main_s[trace].values())

    def end_to_end(self) -> dict:
        return {"wall_s": self.wall_s(False),
                "setup_s": statistics.median(self.setup),
                "peak_rss_mb": max(self.rss_kb) / 1024}

    def per_layer(self) -> dict:
        """Summed over jobs: counts from each job's first traced run, times
        as each job's median over its traced runs."""
        total: dict[str, float] = {}
        for runs in self.layers.values():
            for key in runs[0]:
                if key.endswith("_s"):
                    value = statistics.median(r[key] for r in runs)
                else:
                    value = runs[0][key]
                total[key] = total.get(key, 0) + value
        tried = total["census.cones_tried"]
        total["census.survivor_ratio"] = (
            total["census.cones_extended"] / tried if tried else 0.0)
        total["trace.overhead_frac"] = (
            self.wall_s(True) / self.wall_s(False) - 1)
        return total


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, jobs=None) -> tuple[Run, dict]:
    """Repeat the workload's jobs for ``seconds``; returns (run, metrics)."""
    env = job_env()
    jobs = jobs if jobs is not None else WORKLOADS[workload](seed, tiny)
    run = Run(jobs, seed, env)
    spans_dir = None
    if trace:
        spans_dir = OUT_DIR / "spans" / workload
        spans_dir.mkdir(parents=True, exist_ok=True)
        for stale in spans_dir.glob("*.spans"):
            stale.unlink()
    # Cycle through the jobs, each traced then untraced when tracing, so
    # that a run ends at most one job short of its time budget.
    took: dict[str, float] = {}
    start = time.monotonic()
    for i in itertools.count():
        job = jobs[i % len(jobs)]
        first = i < len(jobs)
        if not first and time.monotonic() + took[job.name] - start > seconds:
            break
        t0 = time.monotonic()
        if trace:
            spans_out = None
            if first:
                safe = "".join(c if c.isalnum() else "_" for c in job.name)
                spans_out = str(spans_dir / f"{safe}.spans")
            run.run_job(job, True, spans_out)
        run.run_job(job, False)
        took[job.name] = time.monotonic() - t0
    complete = all(run.main_s[False].values()) and (
        not trace or all(run.layers.values()))
    if not complete:  # some job crashed every time it ran
        return run, {}
    values = run.per_layer() if trace else run.end_to_end()
    return run, {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                 for m in SPEC["per_layer" if trace else "end_to_end"]}


def result_line(run: Run, metrics: dict) -> dict:
    failed = len(run.failures)
    return {"correct": failed == 0 and bool(metrics),
            "attempted": run.attempted, "failed": failed, "metrics": metrics}


def smoke() -> int:
    """Tiny run of every workload, traced and not, plus a corrupted pin."""
    import workloads

    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            try:
                run, metrics = measure(name, 1, 0, trace, tiny=True)
            except KeyError as exc:
                problems.append(f"{name} trace={trace}: no metric {exc}")
                continue
            if not metrics or run.failures:
                problems.append(f"{name} trace={trace}: {run.failures}")
    job = next(j for j in workloads.scan(0, False)
               if j.name.startswith("slope"))
    pin = workloads.PINS[job.name]
    good, _ = measure("scan-rewrite", 0, 0, False, jobs=[job])
    workloads.PINS[job.name] = {**pin, "sha256": "0" * 64}
    bad, _ = measure("scan-rewrite", 0, 0, False, jobs=[job])
    workloads.PINS[job.name] = pin
    failed_frac = len(bad.failures) / bad.attempted
    print(f"smoke: corrupted pin gives failed_frac {failed_frac}",
          file=sys.stderr)
    if good.failures or not failed_frac > 0:
        problems.append("a corrupted sha256 pin did not fail the job")
    for p in problems:
        print("smoke: FAIL", p, file=sys.stderr)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny self-test of every workload and check")
    args = parser.parse_args(argv)
    if SPEC is None or not Path("src/leftorder/cli.py").is_file():
        print("error: run from the root of a leftorder checkout "
              "(BENCHMARK.json or src/leftorder is missing)", file=sys.stderr)
        return 2
    _, warm = spawn({"argv": WARM_ARGV, "trace": False}, job_env())
    if warm["exit"] != 0:
        print(f"error: leftorder does not run: {warm['error']}",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    run, metrics = measure(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    line = result_line(run, metrics)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host_record(),
              "jobs": [{"name": j.name, "argv": j.argv} for j in run.jobs],
              "main_s": {"untraced": run.main_s[False],
                         "traced": run.main_s[True]},
              "failures": run.failures, **line}
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["host"]))
    for f in run.failures:
        print(f"FAILED {f['job']}: {'; '.join(f['failed'])}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

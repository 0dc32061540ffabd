#!/usr/bin/env python3
"""Seeded, offline benchmark of the ebundles CLI.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

Each workload is a closed loop with one client in this process and thread:
the next job starts when the previous one returns, and every job calls
``ebundles.cli.main(argv)`` in-process on generated input files.  A run
repeats the workload's round of jobs until ``--seconds`` have passed and at
least the workload's minimum number of rounds is done.  Every job's output
is checked against a reference the benchmark computes itself (checks.py).

Job and set-up times are reported in reference seconds, which cancel the
host's speed drift (speed.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one round
untraced and the same round traced (tracer.py) and prints the per-layer
metrics; end-to-end numbers never come from a traced run.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import checks
import speed
import workloads
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

# Fresh interpreters timed per run for setup_s.  They are spread over the
# run, between jobs, so the median does not hang on one moment's host load.
SETUP_SAMPLES = 15
# Never start another round past this many seconds, so a run on a slow
# machine still ends well inside three minutes.
ROUND_DEADLINE_S = 120.0

ITEM_NAMES = {
    "sweep": "bundle cells (levels x 4)",
    "ingest": "citation counts ingested",
    "axioms": "pairs checked (pairs per kind x 4 kinds x 4 suites)",
    "converge": "grid points evaluated",
}

SPAN_METRICS = (
    "cli.main",
    "functions.parse_citations",
    "functions.from_citations",
    "functions.function_from_spec",
    "functions.function_to_spec",
    "functions.pwl_build",
    "functions.is_positive_before_T",
    "functions.compare",
    "functions.cumulative_dominates",
    "bundles.e_theta",
    "bundles.h_theta",
    "bundles.classical_h",
    "bundles.sweep",
    "axioms.generate_pairs",
    "axioms.verify_pair",
    "axioms.check_impact_bundle",
    "axioms.check_impact_measure",
    "axioms.check_strong_impact",
    "axioms.check_global_impact",
    "convergence.run_study",
    "convergence.sup_distance",
    "convergence.inverse_sup_distance",
    "convergence.e_sup_distance",
)
COUNT_METRICS = (
    "functions.value.calls",
    "functions.inverse.calls",
    "functions.cumulative.calls",
    "functions.knots_built",
    "functions.is_positive_before_T.knots_scanned",
    "bundles.sweep.cells",
    "bundles.sweep.na_cells",
)


@dataclass
class StepResult:
    rc: int | None
    exc: BaseException | None
    stdout: str
    seconds: float  # wall


@dataclass
class JobRecord:
    job: workloads.Job
    seconds: float  # reference seconds (speed.py)
    wall: float
    failures: list
    out_bytes: int
    steps: list = field(default_factory=list)
    distortion: float | None = None  # ingest only: total-count loss of the spec

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    @property
    def completed(self) -> bool:
        """Every step ran and exited as expected, so the job's work was done."""
        return len(self.steps) == len(self.job.steps) and all(
            s.exc is None and s.rc == want for s, want in zip(self.steps, self.job.expect))


class Runner:
    """Runs jobs in-process and checks each one; verdicts are cached per output."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self._verdicts: dict[tuple, tuple[list, float | None]] = {}

    def call(self, argv: list[str]) -> StepResult:
        out, err = io.StringIO(), io.StringIO()
        rc, exc = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as e:  # argparse rejects argv this way
            rc = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # a traceback out of main is a failed job, not a crash
            exc = e
        return StepResult(rc, exc, out.getvalue(), time.perf_counter() - start)

    def run(self, idx: int, job: workloads.Job) -> JobRecord:
        outputs = [a[a.index("--output") + 1] for a in job.steps if "--output" in a]
        # a job that writes nothing must not be checked against an earlier
        # run's file; start every job from the same collector state; both
        # outside the timing
        for path in outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        gc.collect()
        before = speed.loop_seconds()
        steps = []
        for argv, want in zip(job.steps, job.expect):
            r = self.call(argv)
            steps.append(r)
            if r.exc is not None or r.rc != want:
                break
        wall = sum(s.seconds for s in steps)
        seconds = wall * speed.factor(before, speed.loop_seconds())
        digest = hashlib.sha256()
        out_bytes = 0
        for s in steps:
            data = s.stdout.encode()
            out_bytes += len(data)
            digest.update(data + repr((s.rc, type(s.exc).__name__)).encode())
        for path in outputs:
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    data = fh.read()
                out_bytes += len(data)
                digest.update(data)
        key = (idx, digest.hexdigest())
        if key not in self._verdicts:
            self._verdicts[key] = self.verdict(job, steps)
        failures, distortion = self._verdicts[key]
        return JobRecord(job, seconds, wall, failures, out_bytes, steps, distortion)

    def verdict(self, job: workloads.Job, steps: list) -> tuple[list, float | None]:
        """(failures, total-count distortion) for one job's outputs.

        A step that raised or exited unexpectedly ends the job, so when the
        last step is fine every step ran.
        """
        last, want = steps[-1], job.expect[len(steps) - 1]
        if last.exc is not None:
            defect = None
            if job.info.get("input_kind") == "json_nonnumeric" and type(last.exc) is ValueError:
                defect = "ingest-json-nonnumeric"
            return [(f"raised {type(last.exc).__name__}: {last.exc}", defect)], None
        if last.rc != want:
            return [(f"exit {last.rc}, expected {want}", None)], None
        if job.kind == "ingest":
            return checks.check_ingest(job)
        if job.kind == "ingest_bad":
            spec = job.steps[0][job.steps[0].index("--output") + 1]
            return ([("wrote a spec for a malformed input", None)] if os.path.exists(spec) else []), None
        check = {"sweep": checks.check_sweep, "axioms": checks.check_axioms,
                 "converge": checks.check_converge}.get(job.kind)
        # counterexamples and malformed ingest: the exit code is the check
        return (check(job) if check else []), None


def setup_sample() -> float:
    """Reference seconds to import ebundles.cli in a fresh interpreter."""
    code = (
        f"import sys, time\nsys.path.insert(0, {HERE!r})\nimport speed\n"
        "before = speed.loop_seconds()\nt = time.perf_counter()\nimport ebundles.cli\n"
        "d = time.perf_counter() - t\nd *= speed.factor(before, speed.loop_seconds())\n"
        "import ebundles\nprint(ebundles.__file__)\nprint(repr(d))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    r = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                       capture_output=True, text=True, timeout=60, check=True)
    where, took = r.stdout.split()
    if not os.path.abspath(where).startswith(SRC + os.sep):
        raise RuntimeError(f"imported ebundles from {where}, not from {SRC}")
    return float(took)


def import_cli():
    sys.path.insert(0, SRC)
    import ebundles
    import ebundles.cli

    if not os.path.abspath(ebundles.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported ebundles from {ebundles.__file__}, not from {SRC}")
    return ebundles


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten jobs beyond it."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def _ratio_exponent(t: dict, size: dict, small, large) -> float:
    return math.log(t[large] / t[small]) / math.log(size[large] / size[small])


def class_means(records, incl: dict[int, float], kind: str, key) -> tuple[dict, dict]:
    """Mean inclusive seconds and mean size per class of ``kind`` jobs."""
    t, s, n = Counter(), Counter(), Counter()
    for idx, rec in enumerate(records):
        if rec.job.kind == kind and idx in incl:
            k, size = key(rec.job)
            t[k] += incl[idx]
            s[k] += size
            n[k] += 1
    return {k: t[k] / n[k] for k in n}, {k: s[k] / n[k] for k in n}


def exponents(workload: str, records, tracer: Tracer) -> dict[str, float]:
    """Growth exponents of inclusive span time between a workload's two size classes."""
    out = dict.fromkeys(("bundles.sweep.exp_K", "bundles.sweep.exp_L",
                         "functions.from_citations.exp_K",
                         "axioms.check_impact_measure.exp_P",
                         "axioms.check_strong_impact.exp_P"), 0.0)
    if workload == "sweep":
        t, size = class_means(records, tracer.inclusive_by_job("bundles.sweep"), "sweep",
                              lambda j: ((j.info["K"], j.info["L"]), 1))
        ks = sorted({k for k, _ in t})
        ls = sorted({l for _, l in t})
        if len(ks) == 2 and len(ls) == 2:
            out["bundles.sweep.exp_K"] = statistics.mean(
                math.log(t[(ks[1], l)] / t[(ks[0], l)]) / math.log(ks[1] / ks[0]) for l in ls)
            out["bundles.sweep.exp_L"] = statistics.mean(
                math.log(t[(k, ls[1])] / t[(k, ls[0])]) / math.log(ls[1] / ls[0]) for k in ks)
    elif workload == "ingest":
        t, size = class_means(records, tracer.inclusive_by_job("functions.from_citations"), "ingest",
                              lambda j: (j.info["n"], int(np.count_nonzero(j.info["counts"]))))
        if len(t) >= 2:
            # the largest class against the one closest to a decade below it
            large = max(t)
            small = min((k for k in t if k != large), key=lambda k: abs(math.log10(large / k) - 1))
            out["functions.from_citations.exp_K"] = _ratio_exponent(t, size, small, large)
    elif workload == "axioms":
        for name in ("axioms.check_impact_measure", "axioms.check_strong_impact"):
            t, size = class_means(records, tracer.inclusive_by_job(name), "axioms",
                                  lambda j: ((j.info["bundle"], j.info["P"]), j.info["P"]))
            exps = []
            for b in sorted({b for b, _ in t}):
                ps = sorted(p for bb, p in t if bb == b)
                if len(ps) == 2:
                    exps.append(_ratio_exponent(t, size, (b, ps[0]), (b, ps[1])))
            if exps:
                out[f"{name}.exp_P"] = statistics.mean(exps)
    return out


def max_distortion(records) -> float:
    return max((r.distortion for r in records if r.distortion is not None), default=0.0)


def per_layer(workload, records, base_records, tracer: Tracer) -> dict:
    summary = tracer.summary()
    m: dict[str, tuple[float, str]] = {}
    for name in SPAN_METRICS:
        s = summary.get(name, {"calls": 0, "self_s": 0.0})
        m[f"{name}.calls"] = (s["calls"], "count")
        m[f"{name}.self_s"] = (s["self_s"], "s")
    for name in COUNT_METRICS:
        m[name] = (tracer.counts.get(name, 0), "count")
    h_calls = summary.get("bundles.h_theta", {"calls": 0})["calls"]
    in_h = tracer.counts.get("functions.value.calls.in.bundles.h_theta", 0)
    m["bundles.h_theta.value_calls_per_call"] = (in_h / h_calls if h_calls else 0.0, "calls/call")
    attempts = tracer.counts.get("axioms.generate_pairs.attempts", 0)
    accepted = tracer.counts.get("axioms.generate_pairs.accepted", 0)
    m["axioms.generate_pairs.accept_ratio"] = (accepted / attempts if attempts else 0.0, "ratio")
    m["cli.output_bytes"] = (sum(r.out_bytes for r in records), "bytes")
    m["functions.from_citations.total_distortion_rel"] = (max_distortion(records), "ratio")
    for name, v in exponents(workload, records, tracer).items():
        m[name] = (v, "exponent")
    base = sum(r.seconds for r in base_records)
    traced = sum(r.seconds for r in records)
    m["trace.overhead_frac"] = ((traced - base) / base, "ratio")
    return m


def end_to_end(records, setup_s: float) -> tuple[dict, dict]:
    times = [r.seconds for r in records]
    busy = sum(times)
    done = sum(r.job.units for r in records if r.completed)
    tail_s, tail_pct = tail(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_s, "s"),
        "items_per_s": (done / busy, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    walls = [r.wall for r in records]
    extra = {
        "fail_frac": (sum(r.failed for r in records) / len(records), "ratio"),
        "job_tail_percentile": (tail_pct, "%"),
        "jobs": (len(records), "count"),
        "busy_s": (busy, "s"),
        "wall_job_p50_s": (statistics.median(walls), "s"),
        "wall_busy_s": (sum(walls), "s"),
    }
    return metrics, extra


def failure_lines(records) -> list[str]:
    reasons = Counter()
    for r in records:
        for msg, defect in r.failures:
            tag = f"known defect {defect}" if defect else "UNEXPECTED"
            reasons[f"{r.job.label}: {msg} [{tag}]"] += 1
    return [f"  {n} x {reason}" for reason, n in sorted(reasons.items())]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", log=print) -> dict:
    """Run one workload and return its result object (the last output line)."""
    work = os.path.join(WORK, f"{workload}-s{seed}-t{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    jobs, min_rounds = workloads.build(workload, seed, work, scale)
    digest = workloads.inputs_sha256(work, jobs)
    package = import_cli()
    runner = Runner(package.cli)
    try:
        runner.run(-1, min(jobs, key=lambda j: j.units))  # warm-up, not recorded
        if trace:
            base = [runner.run(i, j) for i, j in enumerate(jobs)]
            tracer = Tracer()
            tracer.install(package)
            try:
                records = []
                for i, j in enumerate(jobs):
                    tracer.job_id = i
                    records.append(runner.run(i, j))
            finally:
                tracer.uninstall()
            tracer.save(os.path.join(WORK, f"spans-{workload}-s{seed}.npz"))
            metrics = per_layer(workload, records, base, tracer)
            extra = {}
        else:
            records, setup, rounds, start = [], [], 0, time.perf_counter()
            stride = max(1, len(jobs) * min_rounds // SETUP_SAMPLES)
            while rounds < min_rounds or time.perf_counter() - start < seconds:
                round_start = time.perf_counter()
                for i, j in enumerate(jobs):
                    records.append(runner.run(i, j))
                    if len(records) % stride == 0 and len(setup) < SETUP_SAMPLES:
                        setup.append(setup_sample())
                rounds += 1
                now = time.perf_counter()
                if now - start + (now - round_start) > ROUND_DEADLINE_S:
                    break
            while len(setup) < SETUP_SAMPLES:
                setup.append(setup_sample())
            metrics, extra = end_to_end(records, statistics.median(setup))
            extra["setup_samples"] = (len(setup), "count")
            extra["rounds"] = (rounds, "count")
            extra["max_distortion_rel"] = (max_distortion(records), "ratio")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(r.failed for r in records)
    unexpected = any(d is None for r in records for _, d in r.failures)
    log(f"workload {workload} seed {seed} trace {int(trace)} scale {scale}")
    log(f"  inputs_sha256 {digest}")
    if not trace:
        log(f"  items are {ITEM_NAMES[workload]}")
    for name, (v, unit) in {**metrics, **extra}.items():
        log(f"  {name} {v:.6g} {unit}")
    by_class: dict[str, list[float]] = {}
    for r in records:
        by_class.setdefault(r.job.label, []).append(r.seconds)
    for label, ts in sorted(by_class.items(), key=lambda kv: statistics.median(kv[1])):
        log(f"  class {label} jobs {len(ts)} median {statistics.median(ts):.4g} s")
    log(f"  attempted {len(records)} failed {failed}")
    for line in failure_lines(records):
        log(line)
    return {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process, then one summary table."""
    results = {}
    for w in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(r.stdout)
        sys.stderr.write(r.stderr)
        if r.returncode != 0:
            print(f"error: workload {w} exited {r.returncode}", file=sys.stderr)
            return r.returncode
        results[w] = json.loads(r.stdout.splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    print("\nworkload   " + "  ".join(f"{n:>14}" for n in names + ["fail_frac"]))
    for w, res in results.items():
        row = [res["metrics"][n]["value"] for n in names] + [res["failed"] / res["attempted"]]
        print(f"{w:<10} " + "  ".join(f"{v:>14.6g}" for v in row))
    print("units      " + "  ".join(f"{results[w]['metrics'][n]['unit']:>14}" for n in names)
          + f"  {'ratio':>14}")
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ebundles", "cli.py")):
        print(f"error: no ebundles sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

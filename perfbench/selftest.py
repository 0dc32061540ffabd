#!/usr/bin/env python3
"""Self-test of the benchmark harness at a tiny size.

    python3 perfbench/selftest.py

Checks three things and exits 1 if any fails:
  1. every metric named in BENCHMARK.json is emitted, with its unit, in the
     result object of both run modes, for every workload;
  2. the input generator is deterministic: one seed gives the same
     inputs_sha256 twice, another seed a different one;
  3. the reference check counts a deliberately perturbed sweep CSV as an
     unexpected failure.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import run
import workloads

SEED = 7


def _quiet(*_args) -> None:
    pass


def check_metrics(spec: dict) -> list[str]:
    problems = []
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for w in workloads.WORKLOADS:
            res = run.run_workload(w, SEED, 0.0, trace, scale="tiny", log=_quiet)
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{w} trace {int(trace)}: result keys {sorted(res)}")
            if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
                    and isinstance(res["failed"], int)):
                problems.append(f"{w} trace {int(trace)}: bad attempted/failed")
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
                problems.append(f"{w} {section}: missing {missing} extra {extra} unit {units}")
            if any(not isinstance(m["value"], (int, float)) for m in res["metrics"].values()):
                problems.append(f"{w} {section}: a value is not a number")
    return problems


def check_determinism() -> list[str]:
    problems = []
    for scale in ("tiny", "full"):
        for w in workloads.WORKLOADS:
            digests = []
            for tag, seed in (("a", SEED), ("b", SEED), ("c", SEED + 1)):
                work = os.path.join(run.WORK, f"selftest-{w}-{tag}")
                shutil.rmtree(work, ignore_errors=True)
                jobs, _ = workloads.build(w, seed, work, scale)
                digests.append(workloads.inputs_sha256(work, jobs))
                shutil.rmtree(work)
            if digests[0] != digests[1]:
                problems.append(f"{w} {scale}: same seed gave different inputs")
            if digests[0] == digests[2]:
                problems.append(f"{w} {scale}: different seeds gave the same inputs")
    return problems


def check_perturbed_sweep() -> list[str]:
    work = os.path.join(run.WORK, "selftest-perturb")
    shutil.rmtree(work, ignore_errors=True)
    jobs, _ = workloads.build("sweep", SEED, work, "tiny")
    job = next(j for j in jobs if j.info["fmt"] == "csv")
    runner = run.Runner(run.import_cli().cli)
    problems = []
    try:
        first = runner.run(0, job)
        if first.failures:
            return [f"unperturbed sweep CSV already fails: {first.failures}"]
        with open(job.info["output"]) as fh:
            lines = fh.read().splitlines()
        # scale one admissible e cell by 1 + 1e-6, far above the 1e-9 tolerance
        row = next(i for i, ln in enumerate(lines[1:], 1) if ln.split(",")[1] not in ("NA", "0.0"))
        cells = lines[row].split(",")
        cells[1] = repr(float(cells[1]) * (1.0 + 1e-6))
        lines[row] = ",".join(cells)
        bad = os.path.join(work, "perturbed.csv")
        with open(bad, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        fails = checks.check_sweep(job, out=bad)
        if not any(defect is None for _, defect in fails):
            problems.append(f"perturbed sweep CSV passed the reference check: {fails}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return problems


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failed = False
    for name, test in (("metrics emitted with units", lambda: check_metrics(spec)),
                       ("generator deterministic", check_determinism),
                       ("perturbed sweep CSV fails", check_perturbed_sweep)):
        problems = test()
        print(f"{'PASS' if not problems else 'FAIL'} {name}")
        for p in problems:
            print(f"  {p}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded, offline inputs and job lists for the four benchmark workloads.

Every input is drawn from ``numpy.random.default_rng(seed)`` and written
with a fixed text format, so one seed always gives byte-identical files
(``inputs_sha256`` checks this).  A workload is a *round*: a fixed list of
jobs, each one or two ``ebundles.cli.main(argv)`` calls.  The run repeats
the round; the multiplicities below are chosen so that the median and the
tail order statistic of a run fall in the lower part of one large job
class, never on the edge between two classes.  Load from outside the
process only ever slows jobs down, so a low order statistic of many
similar jobs is the one that stays steady from run to run.

``PARAMS`` records each workload's generator parameters; BENCHMARK.json
says why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

# Generator parameters per workload and scale.  "tiny" only serves the
# harness self-test; benchmark runs always use "full".
PARAMS: dict[str, dict] = {
    "sweep": {
        "full": {
            "pareto_shape": 1.2,
            "pareto_scale": 5.0,
            "counts": {"small": 10_000, "large": 100_000},
            "levels": {"few": 101, "many": 1001},
            "hi_factor": 1.1,
            # (size, levels, jobs per round); output formats alternate csv/json
            "jobs": [("small", "few", 5), ("small", "many", 2), ("large", "few", 11),
                     ("large", "many", 1)],
            "min_rounds": 1,
        },
        "tiny": {
            "pareto_shape": 1.2,
            "pareto_scale": 5.0,
            "counts": {"small": 300, "large": 3_000},
            "levels": {"few": 11, "many": 101},
            "hi_factor": 1.1,
            "jobs": [("small", "few", 1), ("small", "many", 1), ("large", "few", 1),
                     ("large", "many", 1)],
            "min_rounds": 1,
        },
    },
    "ingest": {
        "full": {
            "pareto_shape": 1.2,
            "pareto_scale": 5.0,
            # counts per file -> files per round
            "sizes": {100: 3, 1_000: 3, 10_000: 4, 31_623: 9, 100_000: 6},
            "outlier_top": 1_000_000,
            "malformed": ["line_nonnumeric", "line_negative", "json_all_zero", "json_nonnumeric"],
            "min_rounds": 2,
        },
        "tiny": {
            "pareto_shape": 1.2,
            "pareto_scale": 5.0,
            "sizes": {20: 1, 200: 2, 2_000: 2},
            "outlier_top": 10_000,
            "malformed": ["line_nonnumeric", "line_negative", "json_all_zero", "json_nonnumeric"],
            "min_rounds": 1,
        },
    },
    "axioms": {
        "full": {
            # bundle -> (measure level, jobs at the small pair count per round)
            "bundles": {"mu": (0.5, 2), "i": (0.5, 2), "e": (2.5, 6), "h": (8.0, 8)},
            "pairs": {"small": 50, "large": 200},
            "min_rounds": 1,
        },
        "tiny": {
            "bundles": {"mu": (0.5, 1), "i": (0.5, 1), "e": (2.5, 1), "h": (8.0, 1)},
            "pairs": {"small": 6, "large": 12},
            "min_rounds": 1,
        },
    },
    "converge": {
        "full": {
            # family -> jobs per round
            "families": {"power": 2, "zipf": 4, "linear": 1, "shifted": 1},
            "counterexamples": 3,
            "grid_n": 100_000,
            "theta_grid_n": 20_000,
            "n_count": 6,
            "log10_n_range": (1.0, 5.0),
            "min_rounds": 2,
        },
        "tiny": {
            "families": {"power": 1, "zipf": 1, "linear": 1, "shifted": 1},
            "counterexamples": 1,
            "grid_n": 2_000,
            "theta_grid_n": 400,
            "n_count": 3,
            "log10_n_range": (1.0, 3.0),
            "min_rounds": 1,
        },
    },
}

WORKLOADS = tuple(PARAMS)


@dataclass
class Job:
    """One closed-loop request: one or more ``main(argv)`` calls in order.

    ``kind`` names the reference check; ``info`` carries what the check
    and the scaling fits need (input paths, sizes, expected values).
    ``units`` is the work credited to ``items_per_s`` when every step
    exits as expected.
    """

    label: str
    kind: str
    steps: list[list[str]]
    expect: list[int]
    units: int
    info: dict = field(default_factory=dict)


def _pareto_counts(rng: np.random.Generator, p: dict, n: int) -> np.ndarray:
    return np.floor(rng.pareto(p["pareto_shape"], n) * p["pareto_scale"])


def continuize(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knots of a strictly decreasing function from a citation vector.

    Sorted positive counts become knots (i, c_i) plus a terminal (k, 0);
    a tied run is broken by subtracting j*eps from its j-th member with
    eps = min(1e-9*max, gap to the next value / (2*run length)).
    """
    c = np.sort(np.asarray(counts, dtype=float))[::-1]
    c = c[c > 0.0]
    starts = np.flatnonzero(np.r_[True, c[1:] != c[:-1]])
    lens = np.diff(np.r_[starts, len(c)])
    vals = c[starts]
    nxt = np.r_[vals[1:], 0.0]
    run_eps = np.minimum(1e-9 * c[0], (vals - nxt) / (2.0 * lens))
    k = np.arange(len(c)) - np.repeat(starts, lens)
    ys = np.r_[c - k * np.repeat(run_eps, lens), 0.0]
    xs = np.arange(len(c) + 1, dtype=float)
    return xs, ys


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _lines(values: np.ndarray) -> str:
    return "".join(f"{int(v)}\n" for v in values)


def _sweep(rng, p, work):
    specs = {}
    for size, n in p["counts"].items():
        xs, ys = continuize(_pareto_counts(rng, p, n))
        spec = {"type": "piecewise_linear", "T": float(xs[-1]),
                "knots": [[x, y] for x, y in zip(xs.tolist(), ys.tolist())]}
        path = _write(os.path.join(work, f"sweep-{size}.json"), json.dumps(spec) + "\n")
        specs[size] = (path, xs, ys)
    rows = [(size, lv) for size, lv, copies in p["jobs"] for _ in range(copies)]
    jobs = []
    for j, (size, lv) in enumerate(rows):
        fmt = ("csv", "json")[j % 2]
        path, xs, ys = specs[size]
        levels = p["levels"][lv]
        hi = p["hi_factor"] * float(ys[0])
        out = os.path.join(work, f"sweep-out-{j}.{fmt}")
        argv = ["sweep", "--input", path, "--theta", f"0:{hi!r}:{levels}",
                "--format", fmt, "--output", out]
        jobs.append(Job(f"{size}-{lv}", "sweep", [argv], [0], 4 * levels,
                        {"output": out, "fmt": fmt, "xs": xs, "ys": ys, "hi": hi,
                         "levels": levels, "K": len(xs), "L": levels}))
    return jobs


def _ingest_counts(rng, p, n, kind):
    c = _pareto_counts(rng, p, n)
    if kind == "outlier":
        # one heavily cited item over a long run of tied small counts
        c[0] = p["outlier_top"]
        c[1 : n // 2] = 1.0
    if kind.endswith("unsorted") or kind == "outlier":
        rng.shuffle(c)
    else:
        c = np.sort(c)[::-1]
    return c


_VALID_KINDS = ("line_sorted", "json_unsorted", "line_unsorted", "json_sorted")
_MALFORMED = {
    "line_nonnumeric": "7\n3\nabc\n1\n",
    "line_negative": "7\n-3\n1\n",
    "json_all_zero": '{"citations": [0, 0, 0]}\n',
    "json_nonnumeric": '{"citations": [5, "x"]}\n',
}


def _ingest(rng, p, work):
    jobs = []
    for name in p["malformed"]:
        path = _write(os.path.join(work, f"ingest-{name}.txt"), _MALFORMED[name])
        out = os.path.join(work, f"ingest-{name}.spec.json")
        argv = ["ingest", "--input", path, "--output", out]
        jobs.append(Job("malformed", "ingest_bad", [argv], [2], 0, {"input_kind": name}))
    for n, copies in p["sizes"].items():
        for j in range(copies):
            kind = _VALID_KINDS[j % len(_VALID_KINDS)]
            if n >= 10_000 and j == copies - 1:
                kind = "outlier"
            c = _ingest_counts(rng, p, n, kind)
            stem = os.path.join(work, f"ingest-{n}-{j}")
            if kind.startswith("json"):
                text = json.dumps({"citations": [int(v) for v in c]}) + "\n"
            else:
                text = _lines(c)
            path = _write(stem + ".txt", text)
            spec, ev = stem + ".spec.json", stem + ".eval.json"
            steps = [["ingest", "--input", path, "--output", spec],
                     ["eval", "--input", spec, "--output", ev]]
            jobs.append(Job(f"n{n}", "ingest", steps, [0, 0], n,
                            {"spec": spec, "eval": ev, "counts": c, "n": n, "input_kind": kind}))
    return jobs


def _axioms(rng, p, work):
    jobs = []
    for size, pairs in p["pairs"].items():
        for bundle, (level, small_copies) in p["bundles"].items():
            copies = small_copies if size == "small" else 1
            for j in range(copies):
                seed = int(rng.integers(0, 2**31 - 1))
                out = os.path.join(work, f"axioms-{bundle}-{pairs}-{j}.json")
                argv = ["axioms", "--bundle", bundle, "--suite", "all", "--pairs", str(pairs),
                        "--seed", str(seed), "--measure-theta", repr(level), "--output", out]
                # four relation kinds, four suites
                jobs.append(Job(f"{bundle}-P{pairs}", "axioms", [argv], [0], 16 * pairs,
                                {"output": out, "P": pairs, "bundle": bundle}))
    return jobs


def _converge(rng, p, work):
    jobs = []
    lo, hi = p["log10_n_range"]
    base = np.linspace(lo, hi, p["n_count"])
    gap = (hi - lo) / (p["n_count"] - 1)
    for fam, copies in p["families"].items():
        for copy in range(copies):
            exps = base - rng.uniform(0.0, 0.4 * gap, p["n_count"])
            ns = sorted({int(round(10.0**e)) for e in exps})
            out = os.path.join(work, f"converge-{fam}-{copy}.csv")
            argv = ["converge", "--family", fam, "--grid-n", str(p["grid_n"]),
                    "--theta-grid-n", str(p["theta_grid_n"]),
                    "--n-list", ",".join(map(str, ns)), "--output", out]
            if fam == "power":  # no limit: only the discontinuity grid runs
                units = len(ns) * min(p["grid_n"], 2_000)
            else:
                units = len(ns) * (p["grid_n"] + 2 * p["theta_grid_n"])
            jobs.append(Job(fam, "converge", [argv], [0], units,
                            {"output": out, "family": fam, "ns": ns}))
    for _ in range(p["counterexamples"]):
        jobs.append(Job("counterexamples", "counterexamples", [["counterexamples"]], [0], 0))
    return jobs


_BUILDERS = {"sweep": _sweep, "ingest": _ingest, "axioms": _axioms, "converge": _converge}


def build(workload: str, seed: int, work: str, scale: str = "full") -> tuple[list[Job], int]:
    """Write the workload's inputs under ``work`` and return (round, min rounds).

    The jobs of each class are spread evenly over the round, so a burst of
    load from outside hits few jobs of any one class.
    """
    p = PARAMS[workload][scale]
    os.makedirs(work, exist_ok=True)
    rng = np.random.default_rng(seed)
    return interleave(_BUILDERS[workload](rng, p, work)), p["min_rounds"]


def interleave(jobs: list[Job]) -> list[Job]:
    """Order jobs so that each class's members sit at even fractions of the round."""
    sizes: dict[str, int] = {}
    for j in jobs:
        sizes[j.label] = sizes.get(j.label, 0) + 1
    seen: dict[str, int] = {}
    keyed = []
    for pos, j in enumerate(jobs):
        k = seen.get(j.label, 0)
        seen[j.label] = k + 1
        keyed.append(((k + 0.5) / sizes[j.label], pos, j))
    return [j for _, _, j in sorted(keyed, key=lambda t: (t[0], t[1]))]


def inputs_sha256(work: str, jobs: list[Job]) -> str:
    """One digest over the generated files and every job's argv.

    Call it before any job runs; ``work`` is masked in the argv so the
    digest does not depend on where the inputs were written.
    """
    h = hashlib.sha256()
    for name in sorted(os.listdir(work)):
        h.update(name.encode())
        with open(os.path.join(work, name), "rb") as fh:
            h.update(fh.read())
    for job in jobs:
        h.update(json.dumps(job.steps).replace(work, "<work>").encode())
    return h.hexdigest()

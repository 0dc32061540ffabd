"""Reference checks for every job, computed by the benchmark with numpy.

A check returns a list of ``(message, defect)`` failures.  ``defect`` is
``None`` for an unexpected failure, or the key of a documented defect in
``KNOWN_DEFECTS`` when the failure matches that defect exactly.  Both kinds
count towards ``fail_frac``; only unexpected ones make a run incorrect.
"""

from __future__ import annotations

import json
import math

import numpy as np

REL_TOL = 1e-9

KNOWN_DEFECTS = {
    "ingest-json-nonnumeric": 'ingest of {"citations": [5, "x"]} raises ValueError out of '
    "main instead of exiting 2",
    "h-absolute-bracket": "h_theta stops bisecting at an absolute bracket of "
    "1e-13*max(1, T), so on ~80k-knot functions |Z(h) - theta*h| exceeds "
    "1e-9*max(1, theta*h)",
}


def _close(got: np.ndarray, ref: np.ndarray) -> np.ndarray:
    return np.abs(got - ref) <= REL_TOL * np.maximum(1.0, np.abs(ref))


def _area_prefix(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    return np.r_[0.0, np.cumsum(np.diff(xs) * (ys[:-1] + ys[1:]) * 0.5)]


def _cumulative(xs, ys, prefix, x):
    i = np.clip(np.searchsorted(xs, x, side="right"), 1, len(xs) - 1)
    return prefix[i - 1] + (x - xs[i - 1]) * (ys[i - 1] + np.interp(x, xs, ys)) * 0.5


def _inverse(xs, ys, theta):
    i = np.clip(np.searchsorted(-ys, -theta, side="left"), 1, len(ys) - 1)
    y0, y1 = ys[i - 1], ys[i]
    return xs[i - 1] + (y0 - theta) / (y0 - y1) * (xs[i] - xs[i - 1])


def h_root(xs: np.ndarray, ys: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Exact root of Z(h) = theta*h per level, by bisection over knot index.

    The knot residuals ys - theta*xs strictly decrease, so the root lies on
    the first segment whose right end has a nonpositive residual.
    """
    theta = np.asarray(theta, dtype=float)
    lo = np.zeros(theta.shape, dtype=np.int64)
    hi = np.full(theta.shape, len(xs) - 1, dtype=np.int64)
    at_end = ys[-1] - theta * xs[-1] >= 0.0
    while True:
        open_ = hi - lo > 1
        if not open_.any():
            break
        mid = (lo + hi) // 2
        pos = ys[mid] - theta * xs[mid] > 0.0
        lo = np.where(open_ & pos, mid, lo)
        hi = np.where(open_ & ~pos, mid, hi)
    r0 = ys[lo] - theta * xs[lo]
    r1 = ys[hi] - theta * xs[hi]
    root = xs[lo] + r0 * (xs[hi] - xs[lo]) / (r0 - r1)
    return np.where(at_end, xs[-1], root)


def check_h(xs, ys, theta, h, label: str) -> list[tuple[str, str | None]]:
    """Accept h when |Z(h) - theta*h| <= 1e-9*max(1, theta*h)."""
    T = float(xs[-1])
    if np.any((h < 0.0) | (h > T)):
        return [(f"{label}: h outside [0, T]", None)]
    resid = np.abs(np.interp(h, xs, ys) - theta * h)
    bad = resid > REL_TOL * np.maximum(1.0, theta * h)
    if not bad.any():
        return []
    in_bracket = np.abs(h - h_root(xs, ys, theta)) <= 1e-13 * max(1.0, T)
    out = []
    known = int(np.count_nonzero(bad & in_bracket))
    if known:
        out.append((f"{label}: {known} h cells above the residual tolerance", "h-absolute-bracket"))
    other = int(np.count_nonzero(bad & ~in_bracket))
    if other:
        out.append((f"{label}: {other} h cells off the root", None))
    return out


# ---------------------------------------------------------------------------
# sweep


def read_sweep(path: str, fmt: str) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Parse a sweep table; NA / null cells become NaN."""
    with open(path) as fh:
        text = fh.read()
    names = ("e", "h", "mu", "i")
    if fmt == "json":
        rows = json.loads(text)["rows"]
        theta = np.array([r["theta"] for r in rows], dtype=float)
        cols = {n: np.array([math.nan if r[n] is None else r[n] for r in rows], dtype=float)
                for n in names}
        return theta, cols
    lines = text.splitlines()
    if not lines or lines[0] != "theta,e,h,mu,i":
        raise ValueError("bad CSV header")
    cells = [ln.split(",") for ln in lines[1:]]
    if any(len(c) != 5 for c in cells):
        raise ValueError("CSV row without five cells")
    vals = np.array([[math.nan if v == "NA" else float(v) for v in c] for c in cells], dtype=float)
    if vals.size == 0:
        vals = vals.reshape(0, 5)
    return vals[:, 0], {n: vals[:, k + 1] for k, n in enumerate(names)}


def sweep_reference(xs, ys, theta):
    """Expected cells (NaN where inadmissible) for e, mu, i and h admissibility."""
    T, z0, zT = float(xs[-1]), float(ys[0]), float(ys[-1])
    prefix = _area_prefix(xs, ys)
    ref = {}
    e_ok = (theta >= zT) & (theta <= z0)
    te = np.clip(theta, zT, z0)
    x = _inverse(xs, ys, te)
    ref["e"] = np.where(e_ok, np.maximum(0.0, _cumulative(xs, ys, prefix, x) - te * x), np.nan)
    r_ok = theta <= T
    tr = np.clip(theta, 0.0, T)
    cum = _cumulative(xs, ys, prefix, tr)
    ref["i"] = np.where(r_ok, cum, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        ref["mu"] = np.where(r_ok, np.where(tr > 0.0, cum / tr, z0), np.nan)
    ref["h"] = np.where(theta >= zT / T, 0.0, np.nan)  # only admissibility is compared
    edges = {"e": (zT, z0), "i": (0.0, T), "mu": (0.0, T), "h": (zT / T, zT / T)}
    return ref, edges


def check_sweep(job, out: str | None = None) -> list[tuple[str, str | None]]:
    info = job.info
    xs, ys = info["xs"], info["ys"]
    try:
        theta, cols = read_sweep(out or info["output"], info["fmt"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [(f"unreadable sweep output: {exc}", None)]
    count, hi = info["levels"], info["hi"]
    step = hi / (count - 1)
    expected = np.array([0.0 + i * step for i in range(count)])
    if theta.shape != expected.shape or not np.array_equal(theta, expected):
        return [("theta column differs from the requested grid", None)]
    ref, edges = sweep_reference(xs, ys, theta)
    fails: list[tuple[str, str | None]] = []
    for name in ("e", "h", "mu", "i"):
        got, want = cols[name], ref[name]
        near_edge = np.zeros(theta.shape, dtype=bool)
        for b in edges[name]:
            near_edge |= np.abs(theta - b) <= REL_TOL * max(1.0, abs(b))
        na_wrong = (np.isnan(got) != np.isnan(want)) & ~near_edge
        if na_wrong.any():
            fails.append((f"{name}: NA pattern wrong at {int(na_wrong.sum())} levels", None))
        both = ~np.isnan(got) & ~np.isnan(want)
        if name == "h":
            fails += check_h(xs, ys, theta[both], got[both], "h")
        else:
            off = both & ~_close(np.where(both, got, 0.0), np.where(both, want, 0.0))
            if off.any():
                fails.append((f"{name}: {int(off.sum())} cells off the reference", None))
    return fails


# ---------------------------------------------------------------------------
# ingest


def check_ingest(job) -> tuple[list[tuple[str, str | None]], float | None]:
    """Spec structure, K = positives + 1, strictly decreasing knots, eval's h.

    Returns the failures and the relative total-count loss of the
    tie-breaking, which is reported rather than failed on.
    """
    info = job.info
    try:
        with open(info["spec"]) as fh:
            spec = json.load(fh)
        knots = np.array(spec["knots"], dtype=float)
        T = float(spec["T"])
        ok = spec["type"] == "piecewise_linear" and knots.ndim == 2 and knots.shape[1] == 2
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [(f"spec not readable: {exc}", None)], None
    if not ok:
        return [("spec is not a piecewise linear knot list", None)], None
    counts = np.asarray(info["counts"], dtype=float)
    xs, ys = knots[:, 0], knots[:, 1]
    fails: list[tuple[str, str | None]] = []
    if len(xs) != int(np.count_nonzero(counts > 0)) + 1:
        fails.append((f"K={len(xs)} is not positives + 1", None))
    if not (xs[0] == 0.0 and ys[-1] == 0.0 and T == xs[-1]):
        fails.append(("spec does not run from x=0 to (T, 0)", None))
    if not (np.all(np.diff(xs) > 0.0) and np.all(np.diff(ys) < 0.0)):
        fails.append(("knots not strictly monotone", None))
    total = float(counts.sum())
    distortion = abs(float(ys[:-1].sum()) - total) / total
    try:
        with open(info["eval"]) as fh:
            ev = json.load(fh)
    except (OSError, ValueError) as exc:
        return fails + [(f"eval output not readable: {exc}", None)], distortion
    if ev.get("T") != T or ev.get("h") is None:
        return fails + [("eval output lacks T or h", None)], distortion
    fails += check_h(xs, ys, np.array([1.0]), np.array([float(ev["h"])]), "eval h")
    return fails, distortion


# ---------------------------------------------------------------------------
# axioms, converge


AXIOM_KEYS = {"AX.1", "AX.2", "AX.3", "AX.4", "IM.1", "IM.2", "IM.3",
              "SM.1", "SM.2", "SM.3", "SM.4", "GM"}


def check_axioms(job) -> list[tuple[str, str | None]]:
    """GM alone may fail; every report tests a pair unless it says it is vacuous."""
    try:
        with open(job.info["output"]) as fh:
            reports = json.load(fh)
    except (OSError, ValueError) as exc:
        return [(f"axiom report not readable: {exc}", None)]
    if set(reports) != AXIOM_KEYS:
        return [(f"unexpected report set {sorted(reports)}", None)]
    fails = []
    for key, r in sorted(reports.items()):
        if key != "GM" and not r["passed"]:
            fails.append((f"{key} failed with {len(r['violations'])} violations", None))
        if r["tested"] < 1 and not r["note"].startswith("vacuous"):
            fails.append((f"{key} tested no pair", None))
    return fails


def check_converge(job) -> list[tuple[str, str | None]]:
    """Row per n; the linear family's columns are 1/n, 1/(n+1) and 1/(2n)."""
    try:
        with open(job.info["output"]) as fh:
            lines = fh.read().splitlines()
        if lines[0] != "n,sup_fn,sup_inv,sup_e":
            raise ValueError("bad header")
        rows = [ln.split(",") for ln in lines[1:]]
        ns = [int(r[0]) for r in rows]
        vals = np.array([[math.nan if v == "NA" else float(v) for v in r[1:]] for r in rows])
    except (OSError, ValueError, IndexError) as exc:
        return [(f"convergence CSV not readable: {exc}", None)]
    if ns != job.info["ns"]:
        return [("n column differs from --n-list", None)]
    if job.info["family"] != "linear":
        return []
    n = np.array(ns, dtype=float)
    want = np.column_stack([1.0 / n, 1.0 / (n + 1.0), 1.0 / (2.0 * n)])
    off = np.abs(vals - want) > REL_TOL * np.abs(want)
    if off.any():
        return [(f"linear family: {int(off.sum())} cells off 1/n, 1/(n+1), 1/(2n)", None)]
    return []

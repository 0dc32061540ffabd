"""Command line front end.

Subcommands:
  eval             score a function spec or citation file (h, e-index, R^2,
                   admissible range, plus per-level scores for requested levels)
  sweep            tabulate all four bundles over a level grid (CSV or JSON)
  axioms           run the axiom suites on seeded generated pairs
  converge         run a convergence study for a named sequence family
  counterexamples  reproduce the three counterexample fixtures
  ingest           continuize a citation file into a function spec

Each command reads the parsed argparse namespace directly; the parser holds
every default.  Exit codes: 0 success (including an expected counterexample
reproducing), 1 an axiom violation for a score that should satisfy it (or a
fixture that fails to reproduce), 2 input or I/O failure, including an axiom
run that tested no pair.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
import tempfile

import numpy as np

from . import axioms as ax
from . import bundles as bn
from . import convergence as cv
from . import functions as fn

__all__ = ["build_parser", "main"]


def _atomic_write(path: str, text: str) -> None:
    """Write text to path through a temporary file and a rename.  The file
    gets the mode ``open(path, "w")`` would give it: a replaced file keeps
    its own, a new one gets 0o666 less the umask (``mkstemp`` makes 0o600)."""
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except OSError:  # a new file, or a path mkstemp reports on
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-ebundles-")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, output_path: str | None) -> None:
    if output_path:
        _atomic_write(output_path, text)
    else:
        sys.stdout.write(text)


def _parse_theta_spec(args: argparse.Namespace) -> tuple[float, ...] | None:
    theta, theta_list = args.theta, args.theta_list
    if theta is not None and theta_list is not None:
        raise fn.InputError("use either --theta or --theta-list, not both")
    if theta_list is not None:
        try:
            vals = tuple(float(v) for v in theta_list.split(","))
        except ValueError:
            raise fn.InputError(f"bad --theta-list {theta_list!r}") from None
        if not all(math.isfinite(v) for v in vals):
            raise fn.InputError(f"--theta-list levels must be finite, got {theta_list!r}")
        return vals
    if theta is not None:
        parts = theta.split(":")
        if len(parts) != 3:
            raise fn.InputError("--theta must look like lo:hi:count")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise fn.InputError(f"bad --theta {theta!r}") from None
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise fn.InputError(f"--theta bounds must be finite, got {theta!r}")
        if count < 1 or hi < lo:
            raise fn.InputError("--theta needs hi >= lo and count >= 1")
        return _level_grid(lo, hi, count)
    return None


def _level_grid(lo: float, hi: float, count: int) -> tuple[float, ...]:
    """count >= 1 levels lo + i * step, evenly from lo to hi; (lo,) for one."""
    if count == 1:
        return (lo,)
    step = (hi - lo) / (count - 1)
    return tuple(lo + i * step for i in range(count))


def _read_input(args: argparse.Namespace) -> tuple[object, str]:
    """The ``--input`` file's JSON value and its text.  The value is None
    where the text is not JSON, or is a single number: a citation file of
    one count.  JSON null holds nothing, so it reads as ``{}``."""
    if not args.input:
        raise fn.InputError(f"{args.command} requires --input")
    try:
        with open(args.input) as fh:
            text = fh.read()
    except OSError as exc:
        raise fn.InputError(f"cannot read {args.input}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        return None, text
    return (None if type(obj) in (int, float) else {} if obj is None else obj), text


def _counts(obj, text: str, args: argparse.Namespace) -> np.ndarray:
    """The citation counts of an input: a ``{"citations": [...]}`` object's,
    else one count per line of its text.  Other JSON holds no counts."""
    if obj is None:
        return fn.parse_citations(text)
    if isinstance(obj, list):
        raise fn.InputError(
            f'{args.input}: a JSON list is not citation input; write {{"citations": [...]}}')
    if not (isinstance(obj, dict) and "citations" in obj):
        raise fn.InputError(
            f'{args.input}: {args.command} needs citation counts, one per line or {{"citations": [...]}}')
    counts = obj["citations"]
    if type(counts) is not list:
        raise fn.InputError(f'"citations" must be a list of numbers, got {counts!r}')
    fn._numbers("citation counts", lambda: counts)
    try:
        return np.fromiter(counts, float, len(counts))
    except OverflowError:
        raise fn.InputError('"citations" must be a list of numbers') from None


def _load_input(args: argparse.Namespace) -> fn.RankFunction:
    """Read a function spec (JSON) or a citation file (JSON or line format)."""
    obj, text = _read_input(args)
    if isinstance(obj, dict) and "type" in obj:
        return fn.function_from_spec(obj)
    if obj is None or isinstance(obj, list) or isinstance(obj, dict) and "citations" in obj:
        return fn.from_citations(_counts(obj, text, args))
    raise fn.InputError(f"{args.input}: JSON must hold a function spec or a citations object")


def _default_thetas(f: fn.RankFunction) -> tuple[float, ...]:
    """101 evenly spaced levels over the admissible range, or over
    [lo, lo + 9 max(1, lo)] where the range is unbounded above."""
    rng = f.admissible_range()
    lo = rng.lo
    hi = rng.hi if not rng.unbounded_above else lo + 9.0 * max(1.0, lo)
    return _level_grid(lo, hi, 101)


def _fmt_val(v: float | None) -> str:
    return "NA" if v is None else f"{v:.6f}"


# ---------------------------------------------------------------------------
# Commands


def cmd_eval(args: argparse.Namespace) -> int:
    thetas = _parse_theta_spec(args)
    f = _load_input(args)
    rng = f.admissible_range()

    lines = []
    lines.append(f"domain: [0, {f.T:g}]")
    hi_txt = "inf" if rng.unbounded_above else f"{rng.hi:g}"
    lines.append(f"admissible levels: [{rng.lo:g}, {hi_txt}]")

    result: dict = {"T": f.T, "theta_lo": rng.lo, "theta_hi": None if rng.unbounded_above else rng.hi}
    try:
        h, r2, e = bn._h_core(f)
        lines.append(f"classical h:   {h:.6f}")
        lines.append(f"R^2 (h-core):  {r2:.6f}")
        lines.append(f"e-index:       {e:.6f}  (excess area at h: {e * e:.6f})")
        result.update({"h": h, "r_squared": r2, "e_index": e})
    except fn.InputError as exc:
        lines.append(f"classical h:   NA ({exc})")
        result.update({"h": None, "r_squared": None, "e_index": None})

    if thetas:
        table = bn.sweep(f, sorted(set(thetas)))
        lines.append("theta        e            h            mu           i")
        for r in table.rows:
            lines.append(
                f"{r.theta:<12.6g} {_fmt_val(r.e):<12} {_fmt_val(r.h):<12} "
                f"{_fmt_val(r.mu):<12} {_fmt_val(r.i):<12}"
            )
        result["per_theta"] = table.to_json_obj()["rows"]

    print("\n".join(lines))
    if args.output:
        _atomic_write(args.output, json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    thetas = _parse_theta_spec(args)
    f = _load_input(args)
    table = bn.sweep(f, sorted(set(thetas or _default_thetas(f))))
    text = table.to_json() + "\n" if args.format == "json" else table.to_csv()
    _emit(text, args.output)
    return 0


# Each --suite's checker on (bundle, measure level, pairs): reports by axiom name.
_SUITES = {
    "bundle": lambda bundle, theta, pairs: ax.check_impact_bundle(bundle, pairs),
    "measure": lambda bundle, theta, pairs: ax.check_impact_measure(bundle, theta, pairs),
    "strong": lambda bundle, theta, pairs: ax.check_strong_impact(bundle, theta, pairs),
    "global": lambda bundle, theta, pairs: ax.check_global_impact(bundle, theta, pairs),
}


def cmd_axioms(args: argparse.Namespace) -> int:
    theta = args.measure_theta
    if not math.isfinite(theta):
        raise fn.InputError(f"--measure-theta must be finite, got {theta!r}")
    pairs = ax.generate_pairs(seed=args.seed, count=args.pairs)
    bundle = bn.BUNDLES[args.bundle]

    reports: dict[str, ax.AxiomReport] = {}
    for suite in _SUITES if args.suite == "all" else [args.suite]:
        reports.update(_SUITES[suite](bundle, theta, pairs))

    print(f"bundle={args.bundle} seed={args.seed} pairs={args.pairs} per relation kind")
    print(f"{'axiom':<8} {'tested':>6} {'skipped':>7} {'violations':>10}  passed")
    for key in sorted(reports):
        r = reports[key]
        vacuous = "  (vacuous: no pair tested)" if not r.pairs_tested else ""
        print(f"{r.axiom:<8} {r.pairs_tested:>6} {r.skipped:>7} {len(r.violations):>10}  {r.passed}{vacuous}")
        if not r.passed and key == "GM":
            print("  note: strict growth under cumulative order is not expected to hold")
    # AX.1 is vacuous by construction; a run in which every other report is
    # vacuous too has compared nothing and must not read as a pass
    if not any(r.pairs_tested for key, r in reports.items() if key != "AX.1"):
        raise fn.InputError(
            f"no axiom report tested a pair (measure level {theta:g}); "
            "nothing was checked"
        )

    obj = {k: reports[k].to_json_obj() for k in sorted(reports)}
    if args.output:
        _atomic_write(args.output, json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return 1 if any(not r.passed for key, r in reports.items() if key != "GM") else 0


def cmd_converge(args: argparse.Namespace) -> int:
    try:
        n_list = tuple(int(v) for v in args.n_list.split(","))
    except ValueError:
        raise fn.InputError(f"bad --n-list {args.n_list!r}") from None
    seq = cv.SEQUENCE_FAMILIES[args.family](n_list)
    report = cv.run_study(seq, grid_n=args.grid_n, theta_grid_n=args.theta_grid_n)
    _emit(report.to_csv(), args.output)
    peak = "inf" if math.isinf(report.member_peak) else f"{report.member_peak:g}"
    print(f"# member peak at origin: {peak}", file=sys.stderr)
    if report.limit_discontinuous is not None:
        print(
            f"# no limit declared; pointwise limit looks "
            f"{'discontinuous' if report.limit_discontinuous else 'continuous'}",
            file=sys.stderr,
        )
    else:
        print(
            f"# converges (fn/inv/e): {report.fn_converges}/{report.inv_converges}/{report.e_converges}",
            file=sys.stderr,
        )
    return 0


def cmd_counterexamples(args: argparse.Namespace) -> int:
    ok = True

    fx = ax.fixture_global()
    e_lo = bn.e_theta(fx.pair.lower, fx.theta)
    e_up = bn.e_theta(fx.pair.upper, fx.theta)
    reproduced = abs(e_lo - e_up) <= 1e-12
    ok &= reproduced
    # verify_pair accepted the pair as CUMULATIVE_PREC: lower precedes upper
    print(
        f"cumulative order, equal excess areas: e_1(lower)={e_lo:.6f}, "
        f"e_1(upper)={e_up:.6f}, lower precedes upper: "
        f"{fx.pair.relation is ax.RelationKind.CUMULATIVE_PREC} "
        f"-> excess area not a global impact measure: "
        f"{'REPRODUCED' if reproduced else 'FAILED'}"
    )

    fx = ax.fixture_alt1()
    n_up = ax.n_theta(fx.pair.upper, fx.theta)
    n_lo = ax.n_theta(fx.pair.lower, fx.theta)
    reproduced = n_up < n_lo
    ok &= reproduced
    print(
        f"per-rank excess score: n_1(upper)={n_up:.6f} < n_1(lower)={n_lo:.6f} "
        f"despite upper > lower -> not monotone: "
        f"{'REPRODUCED' if reproduced else 'FAILED'}"
    )

    fx = ax.fixture_alt2()
    eta_up = ax.eta_theta(fx.pair.upper, fx.theta)
    eta_lo = ax.eta_theta(fx.pair.lower, fx.theta)
    reproduced = eta_lo > eta_up
    ok &= reproduced
    print(
        f"own-level area score: eta(lower)={eta_lo:.6f} > eta(upper)={eta_up:.6f} "
        f"despite lower <= upper -> not monotone: "
        f"{'REPRODUCED' if reproduced else 'FAILED'}"
    )
    return 0 if ok else 1


def _spec_text(f: fn.PiecewiseLinearFn) -> str:
    """``json.dumps(fn.function_to_spec(f), indent=2, sort_keys=True) + "\\n"``
    byte for byte, without the pure-Python encoder that ``indent`` selects:
    json writes a finite float as its ``repr``."""
    pairs = map(",\n      ".join, zip(map(repr, f.xs.tolist()), map(repr, f.ys.tolist())))
    knots = "\n    ],\n    [\n      ".join(pairs)
    return (f'{{\n  "T": {f.T!r},\n  "knots": [\n    [\n      {knots}\n    ]\n  ],\n'
            '  "type": "piecewise_linear"\n}\n')


def cmd_ingest(args: argparse.Namespace) -> int:
    counts = _counts(*_read_input(args), args)
    # compared, not differenced: inf - inf would warn on stderr
    if (counts[1:] > counts[:-1]).any():
        print("notice: input not sorted; sorting descending", file=sys.stderr)
    f = fn.from_citations(counts)
    _emit(_spec_text(f), args.output)
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ebundles",
        description="Impact bundles over continuous rank-frequency functions",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_io(sp, need_input=True):
        if need_input:
            sp.add_argument("--input", help="function spec (JSON) or citation file")
        sp.add_argument("--output", help="write the result here (atomic)")

    def add_thetas(sp):
        sp.add_argument("--theta", help="level grid lo:hi:count")
        sp.add_argument("--theta-list", help="explicit levels v1,v2,...")

    sp = sub.add_parser("eval", help="score a single function")
    add_io(sp)
    add_thetas(sp)

    sp = sub.add_parser("sweep", help="tabulate all bundles over a level grid")
    add_io(sp)
    add_thetas(sp)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("axioms", help="axiom suites over seeded pairs")
    add_io(sp, need_input=False)
    sp.add_argument("--bundle", choices=tuple(bn.BUNDLES), default="e")
    sp.add_argument("--suite", choices=(*_SUITES, "all"), default="bundle")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--pairs", type=int, default=200)
    sp.add_argument("--measure-theta", type=float, default=1.0)

    sp = sub.add_parser("converge", help="convergence study for a sequence family")
    add_io(sp, need_input=False)
    sp.add_argument("--family", choices=tuple(cv.SEQUENCE_FAMILIES), default="linear")
    sp.add_argument("--n-list", default="10,100,1000", help="comma separated n values")
    sp.add_argument("--grid-n", type=int, default=10_000)
    sp.add_argument("--theta-grid-n", type=int, default=1_000)

    sp = sub.add_parser("counterexamples", help="reproduce the counterexample fixtures")
    add_io(sp, need_input=False)

    sp = sub.add_parser("ingest", help="citation file to function spec")
    add_io(sp)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser``'s parser, built on the first ``main`` call and kept:
    parsing reads it and never changes it."""
    return build_parser()


_COMMANDS = {
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "axioms": cmd_axioms,
    "converge": cmd_converge,
    "counterexamples": cmd_counterexamples,
    "ingest": cmd_ingest,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except fn.InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

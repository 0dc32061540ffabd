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
every default and each command's function (``run``), which ``main`` calls,
and ``_emit`` writes every output.  An input file reads as one value
(``_read_input``): a function spec, or a citations object, which a citation
file of lines becomes.  Its numbers are read, and specs written, by the
number-text readers and writers of ``functions`` (``_flat_read``,
``parse_citations``, ``_spec_text``), and tables by their own types.
Exit codes: 0 success (including an expected counterexample reproducing),
1 an axiom violation for a score that should satisfy it (or a fixture
that fails to reproduce), 2 input or I/O failure, including an axiom run
that tested no pair, a count whose arrays no array holds, and a run out
of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from collections.abc import Iterable

import numpy as np

from . import bundles as bn
from . import functions as fn

__all__ = ["build_parser", "main"]


def _emit(blocks: Iterable[str], output_path: str | None) -> None:
    """Write the text blocks to stdout, or as ``open(output_path, "w")`` would
    but through a temporary file in its directory and a rename: a symlink
    stays, its target replaced; a replaced file keeps its mode, and a new one
    gets 0o666 less the file mode creation mask, which the kernel applies."""
    if not output_path:
        sys.stdout.writelines(blocks)
        return
    path = os.path.realpath(output_path) if os.path.islink(output_path) else output_path
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:  # a new file or link target
        mode = None
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-ebundles-{os.urandom(6).hex()}")
    # a replaced file's temporary is made with its mode, which the kernel
    # masks, so that it is never open to more users than the file is, and
    # is then given all of it
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666 if mode is None else mode)
    try:
        with open(fd, "w") as fh:
            if mode is not None:
                os.fchmod(fd, mode)
            fh.writelines(blocks)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _parse_theta_spec(args: argparse.Namespace) -> np.ndarray | None:
    theta, theta_list = args.theta, args.theta_list
    if theta is not None and theta_list is not None:
        raise fn.InputError("use either --theta or --theta-list, not both")
    if theta_list is not None:
        try:
            vals = np.fromiter(map(float, theta_list.split(",")), float)
        except ValueError:
            raise fn.InputError(f"bad --theta-list {theta_list!r}") from None
        if not np.isfinite(vals).all():
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
        if count > sys.maxsize // 8:  # more float levels than an array holds
            raise fn.InputError(f"--theta count must be at most {sys.maxsize // 8}, got {count}")
        return _level_grid(lo, hi, count)
    return None


def _level_grid(lo: float, hi: float, count: int) -> np.ndarray:
    """count >= 1 levels lo + i * step, evenly from lo to hi; [lo] for one."""
    if count == 1:
        return np.array([lo])
    with np.errstate(all="ignore"):  # a step that overflows: sweep names the levels
        return lo + np.arange(count) * ((hi - lo) / (count - 1))


def _read_input(args: argparse.Namespace) -> object:
    """The ``--input`` file's value.  The file is read once, as bytes, which
    ``fn._flat_read`` reads where it takes them and ``json.loads`` decodes
    as UTF-8 text elsewhere.  A text that is not JSON, or is a single
    number, is a citation file, ``{"citations": counts}`` of its lines
    (``fn.parse_citations``).  JSON null holds nothing, so it reads as
    ``{}``."""
    if not args.input:
        raise fn.InputError(f"{args.command} requires --input")
    try:
        with open(args.input, "rb") as fh:
            data = fh.read()
        obj = fn._flat_read(data)
        if obj is not None:
            return obj
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise fn.InputError(f"cannot read {args.input}: {exc}") from None
    del data
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        return {"citations": fn.parse_citations(text)}
    except RecursionError:
        raise fn.InputError(f"{args.input}: JSON nests too deeply to read") from None
    except ValueError:  # an integer with more digits than int() reads
        raise fn.InputError(f"{args.input}: a number is too long to read "
                            f"({sys.get_int_max_str_digits()} digits at most)") from None
    if type(obj) in (int, float):  # a citation file of one count
        return {"citations": fn.parse_citations(text)}
    return {} if obj is None else obj


def _counts(obj, args: argparse.Namespace) -> np.ndarray:
    """The citation counts of an input's ``{"citations": [...]}`` object, a
    float array as it is (``fn._flat_read``'s or a line file's).  Other
    JSON holds no counts."""
    if isinstance(obj, list):
        raise fn.InputError(
            f'{args.input}: a JSON list is not citation input; write {{"citations": [...]}}')
    if not (isinstance(obj, dict) and "citations" in obj):
        raise fn.InputError(
            f'{args.input}: {args.command} needs citation counts, one per line or {{"citations": [...]}}')
    counts = obj["citations"]
    if type(counts) is np.ndarray:
        return counts
    if type(counts) is not list:
        raise fn.InputError(f'"citations" must be a list of numbers, got {counts!r}')
    return fn._numbers("citation counts", counts)


def _load_input(args: argparse.Namespace) -> fn.RankFunction:
    """Read a function spec (JSON) or a citation file (JSON or line format)."""
    obj = _read_input(args)
    if isinstance(obj, dict) and "type" in obj:
        return fn.function_from_spec(obj)
    if isinstance(obj, list) or isinstance(obj, dict) and "citations" in obj:
        return fn.from_citations(_counts(obj, args))
    raise fn.InputError(f"{args.input}: JSON must hold a function spec or a citations object")


def _level_lines(columns: np.ndarray) -> str:
    """eval's line per level of a sweep's (5, L) columns: each cell's format
    (theta's %g, a score's %.6f) or NA, padded to 12, filled in one ``%``."""
    na = np.isnan(columns.T)
    cells = np.where(na, [f"{'NA':<12}{end}" for end in "    \n"],
                     ["%-12.6g ", *["%-12.6f "] * 3, "%-12.6f\n"])
    return ("".join(cells.ravel().tolist()) % tuple(columns.T[~na].tolist()))[:-1]


# ---------------------------------------------------------------------------
# Commands


def cmd_eval(args: argparse.Namespace) -> int:
    thetas = _parse_theta_spec(args)
    f = _load_input(args)
    rng = f.admissible_range()

    hi_txt = "inf" if rng.unbounded_above else f"{rng.hi:g}"
    lines = [f"domain: [0, {f.T:g}]", f"admissible levels: [{rng.lo:g}, {hi_txt}]"]

    result: dict = {"T": f.T, "theta_lo": rng.lo, "theta_hi": None if rng.unbounded_above else rng.hi}
    try:
        h, r2, e = bn._h_core(f)
        lines += [f"classical h:   {h:.6f}", f"R^2 (h-core):  {r2:.6f}",
                  f"e-index:       {e:.6f}  (excess area at h: {e * e:.6f})"]
        result.update({"h": h, "r_squared": r2, "e_index": e})
    except fn.InputError as exc:
        lines.append(f"classical h:   NA ({exc})")
        result.update({"h": None, "r_squared": None, "e_index": None})

    if thetas is not None:
        table = bn.sweep(f, np.unique(thetas))
        # a key of the top object, as "rows" is of a sweep's JSON: the list
        # reads alike in both, so the sweep's text of it takes this place
        result["per_theta"] = []
        lines += ["theta        e            h            mu           i",
                  _level_lines(table.columns)]

    # written before the report is printed: a failed write prints nothing
    if args.output:
        text = json.dumps(result, indent=2, sort_keys=True)
        if thetas is not None:
            rows = table.to_json()
            text = text.replace('"per_theta": []', '"per_theta": ' + rows[rows.index("["):-2], 1)
        _emit([text + "\n"], args.output)
    print("\n".join(lines))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    thetas = _parse_theta_spec(args)
    f = _load_input(args)
    if thetas is None:  # 101 levels over the admissible range, or [lo, lo + 9 max(1, lo)] if open
        rng = f.admissible_range()
        hi = rng.lo + 9.0 * max(1.0, rng.lo) if rng.unbounded_above else rng.hi
        thetas = _level_grid(rng.lo, hi, 101)
    table = bn.sweep(f, np.unique(thetas))
    text = table.to_json() + "\n" if args.format == "json" else table.to_csv()
    _emit([text], args.output)
    return 0


# Each --suite's checker on (axioms module, bundle, measure level, pairs):
# reports by axiom name.  The module is an argument so that only the axioms
# command loads it.
_SUITES = {
    "bundle": lambda ax, bundle, theta, pairs: ax.check_impact_bundle(bundle, pairs),
    "measure": lambda ax, bundle, theta, pairs: ax.check_impact_measure(bundle, theta, pairs),
    "strong": lambda ax, bundle, theta, pairs: ax.check_strong_impact(bundle, theta, pairs),
    "global": lambda ax, bundle, theta, pairs: ax.check_global_impact(bundle, theta, pairs),
}


def cmd_axioms(args: argparse.Namespace) -> int:
    from . import axioms as ax

    theta = args.measure_theta
    if not math.isfinite(theta):
        raise fn.InputError(f"--measure-theta must be finite, got {theta!r}")
    pairs = ax.generate_pairs(seed=args.seed, count=args.pairs)
    bundle = bn.BUNDLES[args.bundle]

    reports: dict[str, ax.AxiomReport] = {}
    for suite in _SUITES if args.suite == "all" else [args.suite]:
        reports.update(_SUITES[suite](ax, bundle, theta, pairs))

    # AX.1 is vacuous by construction; a run in which every other report is
    # vacuous too has compared nothing and must not read as a pass: its
    # table is printed, and nothing is written
    vacuous = not any(r.pairs_tested for key, r in reports.items() if key != "AX.1")
    # written before the table is printed: a failed write prints nothing
    if args.output and not vacuous:
        obj = {k: reports[k].to_json_obj() for k in sorted(reports)}
        _emit([json.dumps(obj, indent=2, sort_keys=True) + "\n"], args.output)

    print(f"bundle={args.bundle} seed={args.seed} pairs={args.pairs} per relation kind")
    print(f"{'axiom':<8} {'tested':>6} {'skipped':>7} {'violations':>10}  passed")
    for key in sorted(reports):
        r = reports[key]
        note = "  (vacuous: no pair tested)" if not r.pairs_tested else ""
        print(f"{r.axiom:<8} {r.pairs_tested:>6} {r.skipped:>7} {len(r.violations):>10}  {r.passed}{note}")
        if not r.passed and key == "GM":
            print("  note: strict growth under cumulative order is not expected to hold")
    if vacuous:
        raise fn.InputError(
            f"no axiom report tested a pair (measure level {theta:g}); "
            "nothing was checked"
        )
    return 1 if any(not r.passed for key, r in reports.items() if key != "GM") else 0


def cmd_converge(args: argparse.Namespace) -> int:
    from . import convergence as cv

    try:
        n_list = tuple(int(v) for v in args.n_list.split(","))
    except ValueError:
        raise fn.InputError(f"bad --n-list {args.n_list!r}") from None
    seq = cv.SEQUENCE_FAMILIES[args.family](n_list)
    report = cv.run_study(seq, grid_n=args.grid_n, theta_grid_n=args.theta_grid_n)
    _emit([report.to_csv()], args.output)
    peak = "inf" if math.isinf(report.member_peak) else f"{report.member_peak:g}"
    print(f"# member peak at origin: {peak}", file=sys.stderr)
    if seq.limit is not None:
        verdict = f"converges (fn/inv/e): {report.fn_converges}/{report.inv_converges}/{report.e_converges}"
    elif report.limit_discontinuous is None:
        verdict = "no limit declared; pointwise limit: NA (needs three or more n values)"
    else:
        verdict = ("no limit declared; pointwise limit looks "
                   f"{'discontinuous' if report.limit_discontinuous else 'continuous'}")
    print(f"# {verdict}", file=sys.stderr)
    return 0


def cmd_counterexamples(args: argparse.Namespace) -> int:
    from . import axioms as ax

    # each fixture read through the axiom its score breaks, which a violation
    # reproduces (GM tests only pairs that the checker verified as CUMULATIVE_PREC)
    fg, f1, f2 = ax.fixture_global(), ax.fixture_alt1(), ax.fixture_alt2()
    found = [
        (ax.check_global_impact(bn.E_BUNDLE, fg.theta, fg.pairs)["GM"],
         "cumulative order, equal excess areas",
         "e_1(lower)={rhs:.6f}, e_1(upper)={lhs:.6f}, lower precedes upper: True",
         "excess area not a global impact measure"),
        (ax.check_impact_measure(ax.pseudo_bundle_n(), f1.theta, f1.pairs)["IM.2"],
         "per-rank excess score",
         "n_1(upper)={lhs:.6f} < n_1(lower)={rhs:.6f} despite upper > lower", "not monotone"),
        (ax.check_impact_measure(ax.pseudo_bundle_eta(), f2.theta, f2.pairs)["IM.2"],
         "own-level area score",
         "eta(lower)={rhs:.6f} > eta(upper)={lhs:.6f} despite lower <= upper", "not monotone"),
    ]
    for r, claim, scores, conclusion in found:
        # a violation prints its upper's (lhs) and lower's (rhs) scores
        verdict = f"{r.axiom} held" if r.passed else scores.format(**vars(r.violations[0]))
        print(f"{claim}: {verdict} -> {conclusion}: {'FAILED' if r.passed else 'REPRODUCED'}")
    return 1 if any(r.passed for r, *_ in found) else 0


def cmd_ingest(args: argparse.Namespace) -> int:
    counts = _counts(_read_input(args), args)
    f = fn.from_citations(counts)
    # once the counts are accepted: a run that fails says only why
    if (counts[1:] > counts[:-1]).any():
        print("notice: input not sorted; sorting descending", file=sys.stderr)
    _emit(fn._spec_text(f), args.output)
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
    sp.set_defaults(run=cmd_eval)
    add_io(sp)
    add_thetas(sp)

    sp = sub.add_parser("sweep", help="tabulate all bundles over a level grid")
    sp.set_defaults(run=cmd_sweep)
    add_io(sp)
    add_thetas(sp)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("axioms", help="axiom suites over seeded pairs")
    sp.set_defaults(run=cmd_axioms)
    add_io(sp, need_input=False)
    sp.add_argument("--bundle", choices=tuple(bn.BUNDLES), default="e")
    sp.add_argument("--suite", choices=(*_SUITES, "all"), default="bundle")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--pairs", type=int, default=200)
    sp.add_argument("--measure-theta", type=float, default=1.0)

    sp = sub.add_parser("converge", help="convergence study for a sequence family")
    sp.set_defaults(run=cmd_converge)
    add_io(sp, need_input=False)
    # convergence.SEQUENCE_FAMILIES's keys in order, written out so that the
    # parser does not load that module (a test holds the two equal)
    sp.add_argument("--family", choices=("linear", "shifted", "zipf", "power"), default="linear")
    sp.add_argument("--n-list", default="10,100,1000", help="comma separated n values")
    sp.add_argument("--grid-n", type=int, default=10_000)
    sp.add_argument("--theta-grid-n", type=int, default=1_000)

    sub.add_parser("counterexamples", help="reproduce the counterexample fixtures").set_defaults(
        run=cmd_counterexamples)

    sp = sub.add_parser("ingest", help="citation file to function spec")
    sp.set_defaults(run=cmd_ingest)
    add_io(sp)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser``'s parser, built on the first ``main`` call: parsing only reads it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    # a MemoryError: arrays within a count's bound that this machine cannot hold
    except (fn.InputError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

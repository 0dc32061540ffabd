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
from collections.abc import Iterable, Iterator

import numpy as np

from . import bundles as bn
from . import functions as fn

__all__ = ["build_parser", "main"]


def _atomic_write(path: str, blocks: Iterable[str]) -> None:
    """Write the text blocks to path through a temporary file and a rename,
    as ``open(path, "w")`` would leave it: a symlink stays, its target
    replaced; a replaced file keeps its mode, a new one gets 0o666 less the
    umask (``mkstemp`` makes 0o600)."""
    try:
        st = os.lstat(path)
        if stat.S_ISLNK(st.st_mode):
            path = os.path.realpath(path)
            st = os.stat(path)
        mode = stat.S_IMODE(st.st_mode)
    except OSError:  # a new file or link target, or a path mkstemp reports on
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-ebundles-")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.writelines(blocks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(blocks: Iterable[str], output_path: str | None) -> None:
    if output_path:
        _atomic_write(output_path, blocks)
    else:
        sys.stdout.writelines(blocks)


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
        return _level_grid(lo, hi, count)
    return None


def _level_grid(lo: float, hi: float, count: int) -> np.ndarray:
    """count >= 1 levels lo + i * step, evenly from lo to hi; [lo] for one."""
    if count == 1:
        return np.array([lo])
    with np.errstate(all="ignore"):  # a step that overflows: sweep names the levels
        return lo + np.arange(count) * ((hi - lo) / (count - 1))


# JSON whitespace, and what a JSON number is written with: deleting both
# from a number array's text leaves its brackets and commas
_WHITESPACE = b" \t\n\r"
_NUMBER_BYTES = b"0123456789.eE+-"
# The number arrays read flat from an input file's bytes: the key, the
# byte that blocks are cut at, the array's skeleton per unit (its numbers
# and whitespace deleted, and a comma after the last unit too), the table
# that blanks a unit's brackets, and the shape of a unit's values.  A
# spec's knot pairs are cut before a pair's "[", a citations object's
# counts after a count's comma.
_FLAT_ARRAYS = (
    ("knots", b"[", b"[,],", bytes.maketrans(b"[]", b"  "), (2,)),
    ("citations", b",", b",", None, ()),
)
# bytes of an array read at a time, run on to the next cut: whole units
_SPAN_BLOCK = 1 << 16


def _flat_read(data: bytes) -> dict | None:
    """The JSON object that the bytes of a file hold, its ``"knots"`` array
    (in a file without that key, its ``"citations"`` array) read as one
    flat list of numbers into a float array, (n, 2) for knots; None, and
    the caller decodes the whole file, unless that read gives what
    ``json.loads`` gives of the file's UTF-8 text and every value fits a
    float.  Never raises.

    It takes the bytes only where the key occurs once; the text around the
    array, with ``[]`` in its place, is UTF-8, holds no backslash and
    decodes to an object whose key holds that ``[]``; the array is exactly
    ``[[,],...,[,]]`` or ``[,...,]`` once its numbers and whitespace are
    deleted, with no number outside a pair; and, pairs' brackets read as
    spaces, it decodes as JSON to one number a slot.  The array then holds
    no quote, so no key or backslash hides in it, and each value is an int
    or a float: no bool, string, null, NaN or infinity, which the array
    would hide once read as floats.  It is read a block of whole units at
    a time, each block copied once (and a knot block translated once, its
    pairs' brackets blanked), so that neither a copy of the array nor a
    list of all its values is made.  orjson decodes the values, to the
    doubles that ``json.loads`` gives; what it rejects (NaN, an infinity, a
    value beyond the float range) is read by the general path, which names
    it.  The bytes stay with the caller: their text is what the general
    path reads where the values fail to decode."""
    for name, cut_byte, unit, flatten, tail in _FLAT_ARRAYS:
        key = f'"{name}"'
        at = data.find(key.encode())
        if at >= 0:
            break
    else:
        return None
    # the array runs from the first "[" after the key to the last "]" before
    # the next quote or "}"; the checks below hold only if it really does
    start = data.find(b"[", at)
    close = data.find(b"}", start)
    if min(start, close) < 0:
        return None
    quote = data.find(b'"', start, close)
    end = data.rfind(b"]", start, close if quote < 0 else quote)
    if end < 0:
        return None
    try:
        outside = (data[:start] + b"[]" + data[end + 1:]).decode("utf-8")
        if outside.count(key) != 1 or "\\" in outside:
            return None
        obj = json.loads(outside)
        if type(obj) is not dict or obj.get(name) != []:
            return None
        import orjson

        # a unit per cut byte: a pair opens with "[", and a count closes with
        # a comma, which the last count lacks (counted a block at a time)
        closes = cut_byte == b","
        octets = np.frombuffer(data, np.uint8, end - start - 1, start + 1)
        units = sum(int(np.count_nonzero(octets[a:a + _SPAN_BLOCK] == cut_byte[0]))
                    for a in range(0, len(octets), _SPAN_BLOCK))
        array = np.empty((units + closes, *tail))
        flat, width, view = array.reshape(-1), math.prod(tail), memoryview(data)
        at, i, last = start + 1, 0, False
        while not last:
            # every block but the last holds a comma before its cut
            cut = data.find(cut_byte, max(at + _SPAN_BLOCK, data.find(b",", at, end) + 1), end)
            last = cut < 0
            # the block, from the byte before it to its last comma (the
            # array's "]" in the last block), reads as a JSON list with
            # those two bytes made its brackets
            block = bytearray(view[at - 1:end + 1 if last else cut + closes])
            edges = 0, len(block) - 1 if last else block.rfind(b",")
            # only whitespace follows a unit's last comma ("[0, 3,] [1, 0]" holds a pair's)
            if block[edges[1] + 1:].strip(_WHITESPACE):
                return None
            block[edges[0]], block[edges[1]] = b"[]"
            # m units read "[" + the unit m times, less its last comma, + "]"
            # once their numbers and whitespace are deleted, and no number
            # sits outside a pair: each "],[" and both ends stay whole
            shape = block.translate(None, _WHITESPACE)
            skeleton = shape.translate(None, _NUMBER_BYTES)
            m = (len(skeleton) - 1) // len(unit)
            if skeleton != b"[" + (unit * m)[:-1] + b"]" or flatten and (
                    shape.count(b"],[") != m - 1 or shape[:2] != b"[[" or shape[-2:] != b"]]"):
                return None
            if flatten:  # only the list's brackets stay
                block = block.translate(flatten)
                block[edges[0]], block[edges[1]] = b"[]"
            # json.loads's doubles: orjson rejects NaN, Infinity and a value
            # beyond the float range, which the general path names; an empty
            # last slot (a trailing comma, or no count at all) reads short
            values = orjson.loads(block)
            if len(values) != m * width:
                return None
            flat[i:i + len(values)] = np.fromiter(values, float, len(values))
            at, i = cut + closes, i + len(values)
        obj[name] = array
    except (ValueError, RecursionError, OverflowError):
        return None
    return obj


def _read_input(args: argparse.Namespace) -> tuple[object, str | None]:
    """The ``--input`` file's JSON value, and its UTF-8 text where the line
    format reads it.  The file is read once, as bytes, which ``_flat_read``
    reads where it takes them and ``json.loads`` decoded elsewhere.  The
    value is None, with the text, where the text is not JSON or is a single
    number: a citation file of one count.  Other text is dropped once
    decoded (None in its place), so that it is not held while the value is
    read.  JSON null holds nothing, so it reads as ``{}``."""
    if not args.input:
        raise fn.InputError(f"{args.command} requires --input")
    try:
        with open(args.input, "rb") as fh:
            data = fh.read()
        obj = _flat_read(data)
        if obj is not None:
            return obj, None
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise fn.InputError(f"cannot read {args.input}: {exc}") from None
    del data
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        return None, text
    except RecursionError:
        raise fn.InputError(f"{args.input}: JSON nests too deeply to read") from None
    except ValueError:  # an integer with more digits than int() reads
        raise fn.InputError(f"{args.input}: a number is too long to read "
                            f"({sys.get_int_max_str_digits()} digits at most)") from None
    if type(obj) in (int, float):
        return None, text
    return ({} if obj is None else obj), None


def _counts(obj, text: str | None, args: argparse.Namespace) -> np.ndarray:
    """The citation counts of an input: a ``{"citations": [...]}`` object's,
    a float array as it is (``_flat_read``'s), else one count per line of
    its text.  Other JSON holds no counts."""
    if obj is None:
        return fn.parse_citations(text)
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
    obj, text = _read_input(args)
    if isinstance(obj, dict) and "type" in obj:
        return fn.function_from_spec(obj)
    if obj is None or isinstance(obj, list) or isinstance(obj, dict) and "citations" in obj:
        return fn.from_citations(_counts(obj, text, args))
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
        _atomic_write(args.output, [text + "\n"])
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
        _atomic_write(args.output, [json.dumps(obj, indent=2, sort_keys=True) + "\n"])

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


_SPEC_BLOCK = 4096  # knots written in one block of text


def _spec_text(f: fn.PiecewiseLinearFn) -> Iterator[str]:
    """``json.dumps(fn.function_to_spec(f), indent=2, sort_keys=True) + "\\n"``
    byte for byte, in blocks of ``_SPEC_BLOCK`` knots, without the
    pure-Python encoder that ``indent`` selects: json writes a finite float
    as its ``repr``, and so does ``bundles._number_texts``, which writes a
    block's values, x0, y0, x1, y1, ..., in one orjson call.  The values
    alternate with the separators inside and between knots in one list,
    which is joined once; the spec's opening text is the first block, and
    its closing text takes the place of the last knot's separator."""
    yield f'{{\n  "T": {f.T!r},\n  "knots": [\n    [\n      '
    for at in range(0, len(f.xs), _SPEC_BLOCK):
        values = np.column_stack((f.xs[at:at + _SPEC_BLOCK], f.ys[at:at + _SPEC_BLOCK]))
        parts = ["", ",\n      ", "", "\n    ],\n    [\n      "] * len(values)
        parts[0::2] = bn._number_texts(values)
        if at + _SPEC_BLOCK >= len(f.xs):
            parts[-1] = '\n    ]\n  ],\n  "type": "piecewise_linear"\n}\n'
        yield "".join(parts)


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
    # convergence.SEQUENCE_FAMILIES's keys in order, written out so that the
    # parser does not load that module (a test holds the two equal)
    sp.add_argument("--family", choices=("linear", "shifted", "zipf", "power"), default="linear")
    sp.add_argument("--n-list", default="10,100,1000", help="comma separated n values")
    sp.add_argument("--grid-n", type=int, default=10_000)
    sp.add_argument("--theta-grid-n", type=int, default=1_000)

    sub.add_parser("counterexamples", help="reproduce the counterexample fixtures")

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

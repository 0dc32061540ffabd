"""Committed CLI outputs that refactors must reproduce.

The converge and counterexamples files under ``golden/`` were written by
the code before the vector level API (commit 6ca0ee9) with

    ebundles converge --family F --grid-n 20000 --theta-grid-n 4000 \\
        --n-list 3,17,250,4001,60000 --output converge-F.csv 2> converge-F.stderr
    ebundles counterexamples > counterexamples.txt

and the axioms files by the code before the single axiom driver (commit
1b8a46b), for each bundle B at the benchmark's level L (e 2.5, h 8, mu 0.5,
i 0.5), with

    ebundles axioms --suite all --pairs 50 --seed 7 --bundle B \\
        --measure-theta L --output axioms-B.json > axioms-B.txt

The eval, sweep and ingest files were written by the code before the scalar
forms became wrappers of the vector forms (commit b8ddfbc), for each input
N under ``golden/inputs/`` (a citation file with ties, the linear, Zipf and
power-complement specs, and a three-knot piecewise linear spec), with

    ebundles eval --input N --theta-list 0,0.5,1,2,3.5,5,7,9.5,15 \
        --output eval-N.json > eval-N.txt
    ebundles sweep --input N --output sweep-N.csv
    ebundles sweep --input N --theta 0:12:25 --format json --output sweep-N.json
    ebundles ingest --input citations.txt --output ingest-citations.json \
        2> ingest-citations.stderr

Every output must match byte for byte, except the Zipf converge CSV:
numpy's vector power and the C library's pow can differ by an ulp or two,
so its cells may move by at most 8 * eps * T on the inverse values in
[0, T].
"""

from pathlib import Path

import numpy as np
import pytest

from ebundles.cli import main

GOLDEN = Path(__file__).parent / "golden"
CONVERGE_ARGS = ["--grid-n", "20000", "--theta-grid-n", "4000", "--n-list", "3,17,250,4001,60000"]
ZIPF_T = 1.0
AXIOMS_LEVELS = {"e": "2.5", "h": "8", "mu": "0.5", "i": "0.5"}
INPUTS = {"citations": "citations.txt", "linear": "linear.json", "zipf": "zipf.json",
          "power": "power.json", "pwl": "pwl.json"}
EVAL_LEVELS = "0,0.5,1,2,3.5,5,7,9.5,15"


def _input(name):
    return str(GOLDEN / "inputs" / INPUTS[name])


@pytest.mark.parametrize("family", ["linear", "shifted", "zipf", "power"])
def test_converge(family, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["converge", "--family", family, *CONVERGE_ARGS, "--output", str(out)]) == 0
    assert capsys.readouterr().err == (GOLDEN / f"converge-{family}.stderr").read_text()
    got, want = out.read_text(), (GOLDEN / f"converge-{family}.csv").read_text()
    if family != "zipf":
        assert got == want
        return
    # columns n, sup_fn, sup_inv, sup_e, one row per n
    got_rows, want_rows = (np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
                           for csv in (got.splitlines(), want.splitlines()))
    assert got.splitlines()[0] == want.splitlines()[0]
    assert got_rows[:, 0].tolist() == want_rows[:, 0].tolist()
    tol = 8 * np.finfo(float).eps * ZIPF_T
    for g, w in zip(got_rows, want_rows):
        for j, name in enumerate(("sup_fn", "sup_inv", "sup_e"), start=1):
            assert abs(g[j] - w[j]) <= tol, (g[0], name)


def test_counterexamples(capsys):
    assert main(["counterexamples"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "counterexamples.txt").read_text()


@pytest.mark.parametrize("bundle", sorted(AXIOMS_LEVELS))
def test_axioms(bundle, tmp_path, capsys):
    out = tmp_path / "out.json"
    rc = main(["axioms", "--suite", "all", "--pairs", "50", "--seed", "7", "--bundle", bundle,
               "--measure-theta", AXIOMS_LEVELS[bundle], "--output", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == (GOLDEN / f"axioms-{bundle}.txt").read_text()
    assert out.read_text() == (GOLDEN / f"axioms-{bundle}.json").read_text()


@pytest.mark.parametrize("bundle", ["mu", "i"])
def test_axioms_level_just_past_domain_end(bundle, capsys):
    # 1 + 1e-13 lies inside the admissible range's 1e-12 slack but outside
    # the rank domain [0, 1] that mu and i read: every pair is skipped
    rc = main(["axioms", "--bundle", bundle, "--suite", "measure", "--pairs", "3",
               "--measure-theta", "1.0000000000001"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: no axiom report tested a pair (measure level 1); nothing was checked\n"
    )
    rows = captured.out.splitlines()[2:]
    assert [r.split()[:3] for r in rows] == [["IM.1", "0", "24"], ["IM.2", "0", "3"],
                                             ["IM.3", "0", "3"]]


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_eval(name, tmp_path, capsys):
    out = tmp_path / "out.json"
    rc = main(["eval", "--input", _input(name), "--theta-list", EVAL_LEVELS, "--output", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == (GOLDEN / f"eval-{name}.txt").read_text()
    assert out.read_text() == (GOLDEN / f"eval-{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_sweep(name, tmp_path):
    csv, js = tmp_path / "out.csv", tmp_path / "out.json"
    assert main(["sweep", "--input", _input(name), "--output", str(csv)]) == 0
    assert csv.read_text() == (GOLDEN / f"sweep-{name}.csv").read_text()
    assert main(["sweep", "--input", _input(name), "--theta", "0:12:25", "--format", "json",
                 "--output", str(js)]) == 0
    assert js.read_text() == (GOLDEN / f"sweep-{name}.json").read_text()


def test_ingest(tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(["ingest", "--input", _input("citations"), "--output", str(out)]) == 0
    assert capsys.readouterr().err == (GOLDEN / "ingest-citations.stderr").read_text()
    assert out.read_text() == (GOLDEN / "ingest-citations.json").read_text()

"""The package's public names, and what ``import ebundles.cli`` loads.

``ebundles`` binds every name in ``functions.__all__`` and
``bundles.__all__`` at import and loads ``axioms`` and ``convergence`` on
first use (PEP 562), so the eval, sweep and ingest commands never load
either module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ebundles

SRC = str(Path(ebundles.__file__).parent.parent)
GOLDEN = Path(__file__).parent / "golden"
SUBMODULES = ("functions", "bundles", "axioms", "convergence")

# Every name that ``from ebundles import *`` gave before axioms and
# convergence became lazy, and ``e_thetas`` and ``h_thetas``, which the
# README documents and which came with binding ``bundles.__all__`` whole,
# less ``ConvergenceRow``, which went when a study's report came to hold
# its distances as columns.
PUBLIC = [
    "AxiomReport", "BUNDLES", "BundleDef", "ConvergenceReport",
    "CumulativeOrder", "CumulativeVerdict", "DominancePair", "E_BUNDLE", "Fixture",
    "FunctionSequence", "H_BUNDLE", "I_BUNDLE", "InputError", "LinearFamily", "MU_BUNDLE",
    "PiecewiseLinearFn", "PowerComplement", "RankFunction", "RelationKind",
    "SingularityError", "SweepRow", "SweepTable", "ThetaRange", "ThetaRangeError",
    "Violation", "ZipfFamily", "axioms", "bundles", "check_global_impact",
    "check_impact_bundle", "check_impact_measure", "check_strong_impact", "classical_h",
    "convergence", "cumulative_dominates", "e_index", "e_sup_distance", "e_theta",
    "e_thetas", "eta_theta", "fixture_alt1", "fixture_alt2", "fixture_global", "from_citations",
    "function_from_spec", "function_to_spec", "functions", "generate_pairs", "h_theta",
    "h_thetas", "i_bundle", "inverse_sup_distance", "mu_bundle", "n_theta", "parse_citations",
    "power_complement_sequence", "pseudo_bundle_eta", "pseudo_bundle_n", "r_index_squared",
    "run_study", "scaled_linear_sequence", "shifted_linear_sequence", "sup_distance", "sweep",
    "verify_pair", "zipf_sequence",
]


def _fresh(code: str, *args: str) -> str:
    """stdout of ``code`` run in a new interpreter that imports this package."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=60, check=True).stdout


class TestPublicNames:
    def test_all_dir_and_star_list_every_name(self):
        star: dict = {}
        exec("from ebundles import *", star)
        assert ebundles.__all__ == PUBLIC
        # ebundles.cli, once some test has imported it, is the one name more
        assert [n for n in dir(ebundles) if not n.startswith("_") and n != "cli"] == PUBLIC
        assert sorted(n for n in star if n != "__builtins__") == PUBLIC

    @pytest.mark.parametrize("name", PUBLIC)
    def test_name_is_its_submodules_object(self, name):
        got = {}
        exec(f"from ebundles import {name} as got", got)
        if name in SUBMODULES:
            assert got["got"] is sys.modules[f"ebundles.{name}"]
            return
        (home,) = (m for m in SUBMODULES if name in sys.modules[f"ebundles.{m}"].__all__)
        assert got["got"] is getattr(sys.modules[f"ebundles.{home}"], name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="^module 'ebundles' has no attribute 'nope'$"):
            ebundles.nope
        with pytest.raises(ImportError, match="'nope'"):
            exec("from ebundles import nope", {})

    def test_submodules_resolve_before_anything_loads_them(self):
        out = _fresh(
            "import sys, ebundles\n"
            "print(sorted(m for m in ('ebundles.axioms', 'ebundles.convergence') if m in sys.modules))\n"
            "print(ebundles.axioms is sys.modules['ebundles.axioms'],"
            " ebundles.convergence is sys.modules['ebundles.convergence'])\n"
            "from ebundles import E_BUNDLE, check_impact_bundle, generate_pairs\n"
            "print(check_impact_bundle is ebundles.axioms.check_impact_bundle)\n")
        assert out.splitlines() == ["[]", "True True", "True"]


def test_cli_import_and_one_shot_commands_load_neither_lazy_module(tmp_path):
    """eval, sweep and ingest on the golden inputs, in one fresh interpreter
    that starts from ``import ebundles.cli``, give the golden outputs and
    leave axioms and convergence unloaded; and orjson is loaded by the
    read of a knot or citations array, or the write of a knot array or a
    table (sweep, converge), alone."""
    inputs = GOLDEN / "inputs"
    runs = {
        "eval-pwl.json": ["eval", "--input", str(inputs / "pwl.json"),
                          "--theta-list", "0,0.5,1,2,3.5,5,7,9.5,15"],
        "sweep-zipf.csv": ["sweep", "--input", str(inputs / "zipf.json")],
        "ingest-citations.json": ["ingest", "--input", str(inputs / "citations.txt")],
    }
    argvs = [[*argv, "--output", str(tmp_path / name)] for name, argv in runs.items()]
    out = _fresh(
        "import json, sys\nimport ebundles.cli\n"
        "rcs = [ebundles.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([rcs, sorted(m for m in ('ebundles.axioms', 'ebundles.convergence')"
        " if m in sys.modules)]))\n", json.dumps(argvs))
    assert json.loads(out.splitlines()[-1]) == [[0, 0, 0], []]
    for name in runs:
        assert (tmp_path / name).read_text() == (GOLDEN / name).read_text()
    # orjson loads where a knot or citations array is read, or a knot array
    # or a table written, and nowhere else: not at import, nor for the
    # commands that do neither, eval of a citation file of lines among
    # them; each loader runs in an interpreter of its own, after those
    counts = tmp_path / "citations.json"
    counts.write_text(json.dumps({"citations": [
        int(line) for line in (inputs / "citations.txt").read_text().split()]}))
    loaders = [["eval", "--input", str(counts)], ["eval", "--input", str(inputs / "pwl.json")],
               ["sweep", "--input", str(inputs / "citations.txt")],
               ["converge", "--n-list", "2,5", "--grid-n", "50", "--theta-grid-n", "20"]]
    for loader in loaders:
        argvs = [["counterexamples"], ["axioms", "--pairs", "5"],
                 ["eval", "--input", str(inputs / "citations.txt")], loader]
        out = _fresh(
            "import json, sys\nimport ebundles.cli\nloaded = ['orjson' in sys.modules]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    ebundles.cli.main(argv)\n    loaded.append('orjson' in sys.modules)\n"
            "print(json.dumps(loaded))\n", json.dumps(argvs))
        assert json.loads(out.splitlines()[-1]) == [False] * 4 + [True], loader

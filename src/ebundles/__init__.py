"""Impact bundles for continuous rank-frequency functions.

The central object is the excess-area bundle: for a strictly decreasing
Z on [0, T] and a level theta attained by Z, the score is the area of Z
above the horizontal line at theta, which generalizes the classical
e-index the way the generalized h-index extends h.  Companion bundles
(generalized h, running average, cumulative total), axiom checkers with
counterexample fixtures, and convergence studies round out the library.
"""

# each module's __all__ is the one list of its public names
from .functions import *  # noqa: F403
from .bundles import *  # noqa: F403

# The axiom checkers and the convergence studies load on first use (PEP 562):
# eval, sweep and ingest need neither.  Each lazy name, submodules included,
# maps to its module; reads are not cached, so each sees what the module holds.
_LAZY = {
    **dict.fromkeys((
        "axioms", "AxiomReport", "DominancePair", "Fixture", "RelationKind", "Violation",
        "check_global_impact", "check_impact_bundle", "check_impact_measure",
        "check_strong_impact", "eta_theta", "fixture_alt1", "fixture_alt2", "fixture_global",
        "generate_pairs", "n_theta", "pseudo_bundle_eta", "pseudo_bundle_n", "verify_pair",
    ), "axioms"),
    **dict.fromkeys((
        "convergence", "ConvergenceReport", "FunctionSequence",
        "e_sup_distance", "inverse_sup_distance", "power_complement_sequence", "run_study",
        "scaled_linear_sequence", "shifted_linear_sequence", "sup_distance", "zipf_sequence",
    ), "convergence"),
}

# every public name: those bound above, the two submodules they loaded, the lazy ones
__all__ = sorted({*(name for name in globals() if not name.startswith("_")), *_LAZY})


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

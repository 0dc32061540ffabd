"""Impact bundles for continuous rank-frequency functions.

The central object is the excess-area bundle: for a strictly decreasing
Z on [0, T] and a level theta attained by Z, the score is the area of Z
above the horizontal line at theta, which generalizes the classical
e-index the way the generalized h-index extends h.  Companion bundles
(generalized h, running average, cumulative total), axiom checkers with
counterexample fixtures, and convergence studies round out the library.
"""

from .functions import (
    CumulativeOrder,
    CumulativeVerdict,
    InputError,
    LinearFamily,
    PiecewiseLinearFn,
    PowerComplement,
    RankFunction,
    SingularityError,
    ThetaRange,
    ThetaRangeError,
    ZipfFamily,
    cumulative_dominates,
    from_citations,
    function_from_spec,
    function_to_spec,
    parse_citations,
)
from .bundles import (
    BUNDLES,
    BundleDef,
    E_BUNDLE,
    H_BUNDLE,
    I_BUNDLE,
    MU_BUNDLE,
    SweepRow,
    SweepTable,
    classical_h,
    e_index,
    e_theta,
    h_theta,
    i_bundle,
    mu_bundle,
    r_index_squared,
    sweep,
)
from .axioms import (
    AxiomReport,
    DominancePair,
    Fixture,
    RelationKind,
    Violation,
    check_global_impact,
    check_impact_bundle,
    check_impact_measure,
    check_strong_impact,
    eta_theta,
    fixture_alt1,
    fixture_alt2,
    fixture_global,
    generate_pairs,
    n_theta,
    pseudo_bundle_eta,
    pseudo_bundle_n,
    verify_pair,
)
from .convergence import (
    ConvergenceReport,
    ConvergenceRow,
    FunctionSequence,
    e_sup_distance,
    inverse_sup_distance,
    power_complement_sequence,
    run_study,
    scaled_linear_sequence,
    shifted_linear_sequence,
    sup_distance,
    zipf_sequence,
)

__version__ = "0.1.0"

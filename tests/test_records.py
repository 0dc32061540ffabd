"""Every small citation record: the axioms on the functions that the indices
are applied to, continuized records, not on generated shapes.

The scope is every record of five counts in 1..6 (252 records, weakly
decreasing), continuized by ``from_citations``, and every pair of two of
them where one dominates the other count by count (19,152 pairs, declared
GEQ_ALL).  The tests pin what the library gives on that scope today:

- the pairs whose continuized functions fail the declared relation, which
  the tie-break makes (the knots of a tied run are lowered by steps that
  differ between records, so at some ranks the dominating curve lies
  below); dropping the tie-break takes them to 0 and moves the counts
  below;
- AX.2 and IM.2 at theta = 1 on the pairs kept: e, h, mu and i never
  violate them, while the rejected scores n and eta violate them thousands
  of times, with no generated shape.
"""

import itertools

import numpy as np
import pytest

from ebundles import axioms as ax
from ebundles.bundles import E_BUNDLE, H_BUNDLE, I_BUNDLE, MU_BUNDLE
from ebundles.functions import _PwlStack, from_citations

COUNTS, LARGEST = 5, 6


@pytest.fixture(scope="module")
def scope():
    """The records, and the dominating pairs as (upper, lower) record indices
    with the reason each continuized pair fails GEQ_ALL (None where it
    holds), decided in the one stacked pass that ``verify_pair`` reads."""
    records = np.array(list(itertools.combinations_with_replacement(range(LARGEST, 0, -1),
                                                                    COUNTS)))
    fns = [from_citations(r) for r in records.tolist()]
    dominates = (records[:, None, :] >= records[None, :, :]).all(axis=2)
    np.fill_diagonal(dominates, False)
    up, lo = np.nonzero(dominates)
    stack = _PwlStack.of([fns[i] for i in up] + [fns[j] for j in lo])
    reasons = ax._rejections(stack, np.zeros(len(up), dtype=int), np.full(len(up), float(COUNTS)))
    return records, fns, up, lo, reasons


@pytest.fixture(scope="module")
def kept(scope):
    """The pairs whose continuized functions hold GEQ_ALL, as one set."""
    _, fns, up, lo, reasons = scope
    return ax._Pairs.of([ax.DominancePair(fns[i], fns[j], ax.RelationKind.GEQ_ALL)
                         for i, j, reason in zip(up, lo, reasons) if reason is None])


def test_scope(scope):
    records, _, up, _, _ = scope
    assert len(records) == 252 and len(up) == 19_152


def test_tie_break_rejects_dominating_pairs(scope):
    _, fns, up, lo, reasons = scope
    rejected = [k for k, reason in enumerate(reasons) if reason]
    assert len(rejected) == 944
    first = rejected[0]
    assert reasons[first] == "upper < lower at x=4.0"
    with pytest.raises(ax.VerificationError) as exc:
        ax.verify_pair(ax.DominancePair(fns[up[first]], fns[lo[first]], ax.RelationKind.GEQ_ALL))
    assert exc.value.reason == reasons[first]


# per score: AX.2 violations among the pairs tested, then IM.2 violations
# among the pairs tested at theta = 1
OUTCOMES = {
    "e": (0, 18_208, 0, 18_208),
    "h": (0, 18_208, 0, 18_208),
    "mu": (0, 18_208, 0, 18_208),
    "i": (0, 18_208, 0, 18_208),
    "n": (4_277, 18_208, 848, 18_001),
    "eta": (16_071, 18_208, 8_460, 18_208),
}
BUNDLES = {b.name: b for b in (E_BUNDLE, H_BUNDLE, MU_BUNDLE, I_BUNDLE, ax.pseudo_bundle_n(),
                               ax.pseudo_bundle_eta())}


@pytest.mark.parametrize("name", sorted(OUTCOMES))
def test_monotonicity_on_every_record_pair(name, kept):
    assert len(kept) == 18_208
    ax2 = ax.check_impact_bundle(BUNDLES[name], kept)["AX.2"]
    im2 = ax.check_impact_measure(BUNDLES[name], 1.0, kept)["IM.2"]
    got = (len(ax2.violations), ax2.pairs_tested, len(im2.violations), im2.pairs_tested)
    assert got == OUTCOMES[name]
    # a pair is tested or skipped, never dropped
    assert ax2.pairs_tested + ax2.skipped == im2.pairs_tested + im2.skipped == len(kept)

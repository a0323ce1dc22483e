"""Every paper claim's measured value, pinned to the last bit.

Each artefact runs with ``--quick`` and the point cache off; every
``(claim_id, measured)`` pair must equal the recorded float exactly, so
a statistic that reorders its arithmetic shows up here.  A modelling
change that moves a value must regenerate the pins with::

    PYTHONPATH=src python -c "
    from repro.bench.figures import FIGURES
    for name in sorted(FIGURES):
        for c, m in FIGURES[name](True, cache=False)[1]:
            print(name, c.claim_id, repr(m))"

and say so in the commit message.
"""

import pytest

from repro.bench.figures import FIGURES
from repro.bench.paper import CLAIMS

#: artefact -> [(claim_id, measured)] in evaluation order, --quick
PINNED = {
    "decompose": [],
    "dedicated-core": [("text-dedicated-core", 0.26448362720403024)],
    "fig3": [
        ("fig3-coarse-offset", 123.37500000000001),
        ("fig3-fine-offset", 167.49999999999997),
        ("fig3-offset-flat", 54.25000000000013),
    ],
    "fig5": [
        ("fig5-coarse-ratio", 2.5534299844579724),
        ("fig5-fine-better", 0.7135503623100676),
    ],
    "fig6": [("fig6-pioman-offset", 117.50000000000016)],
    "fig7": [("fig7-passive-offset", 848.8624999999998)],
    "fig8": [
        ("fig8-shared-l2", 458.3749999999999),
        ("fig8-no-shared-cache", 1312.6249999999998),
    ],
    "fig8b": [
        ("fig8b-shared-l2", 458.3749999999999),
        ("fig8b-same-chip", 2398.0625),
        ("fig8b-other-chip", 3206.375),
    ],
    "fig9": [
        ("fig9-tasklet-offset", 1385.25),
        ("fig9-idlecore-offset", 575.2375000000005),
    ],
    "fixed-spin": [("text-fixed-spin", -570.0000000000002)],
    "lockcost": [("text-spin-cycle", 70.0)],
}


@pytest.fixture(scope="module")
def measured():
    return {
        name: [(c.claim_id, m) for c, m in FIGURES[name](True, cache=False)[1]]
        for name in sorted(FIGURES)
    }


@pytest.mark.parametrize("name", sorted(PINNED))
def test_claim_values_pinned(name, measured):
    assert measured[name] == PINNED[name]


def test_every_claim_evaluated_exactly_once(measured):
    evaluated = [claim_id for pairs in measured.values() for claim_id, _ in pairs]
    assert sorted(evaluated) == sorted(CLAIMS)
    assert len(evaluated) == len(CLAIMS) == 17
    assert set(measured) == set(PINNED)

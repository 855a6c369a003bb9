"""Golden regression suite: exact-output pinning for the experiments.

Every simulation here is deterministic, so a small fixed grid has one
correct output — committed under ``fixtures/`` as JSON.  These tests
re-run the grid and require *exact* equality (every float bit), which
catches engine-semantics drift at PR time: any intentional change to
the numbers must regenerate the fixtures (``python
tests/golden/regenerate.py``) **and** bump
``repro.runtime.spec.SPEC_SCHEMA_VERSION`` so stale stores prune
cleanly.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.experiments.common import ExperimentScale
from repro.experiments.fig12_slack import run_fig12
from repro.experiments.fig13_schemes import run_fig13
from repro.experiments.table3_speedups import run_table3
from repro.runtime import ResultStore, Session
from repro.runtime.spec import canonical_json

FIXTURES = Path(__file__).parent / "fixtures"

#: The pinned grid: one LC app, one combo, both paper load points —
#: small enough to run in seconds, wide enough to exercise every
#: policy, every scheme model, and the slack controller.
GOLDEN_SCALE = ExperimentScale(
    requests=60,
    lc_names=("masstree",),
    loads=(0.2, 0.6),
    combos=("nft",),
    mixes_per_combo=1,
)


def build_table3(session: Session):
    """Measured Table 3 speedups on the golden grid."""
    return run_table3(GOLDEN_SCALE, session=session)


def build_fig12(session: Session):
    """Figure 12 slack-sensitivity entries on the golden grid."""
    return [asdict(e) for e in run_fig12(GOLDEN_SCALE, session=session)]


def build_fig13(session: Session):
    """Figure 13 scheme-sensitivity entries on the golden grid."""
    return [asdict(e) for e in run_fig13(GOLDEN_SCALE, session=session)]


BUILDERS = {
    "table3": build_table3,
    "fig12": build_fig12,
    "fig13": build_fig13,
}


@pytest.fixture(scope="module")
def session():
    """One memory-only serial session for the whole suite, so the
    isolated baselines are computed once and shared."""
    return Session(store=ResultStore(None), jobs=1)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_output_matches_golden_fixture_exactly(name, session):
    fixture_path = FIXTURES / f"{name}.json"
    assert fixture_path.exists(), (
        f"missing fixture {fixture_path}; run python tests/golden/regenerate.py"
    )
    expected = json.loads(fixture_path.read_text())
    # Round-trip through canonical JSON so the comparison sees exactly
    # what a fixture regeneration would have written.
    actual = json.loads(canonical_json(BUILDERS[name](session)))
    assert actual == expected, (
        f"{name} drifted from its golden fixture. If the change is "
        f"intentional, regenerate (python tests/golden/regenerate.py) "
        f"and bump SPEC_SCHEMA_VERSION."
    )

"""Unmanaged shared-LRU replay vs the reference NumPy epoch loop.

``MixEngine`` runs LRU cells through the shared-occupancy fluid model
one fused epoch at a time over Python floats.  The NumPy loop it
replaced is kept as :func:`repro.sim.reference.run_unmanaged`.  Each
test builds twin engines the way production builds them, runs one
through ``MixEngine.run`` and the other through the oracle, and
requires **bit-identical** results (``==`` on raw floats, no
tolerance): per-instance latencies, requests served, activations,
batch instructions and cycles, and duration.

The arms cover every LC workload at both loads and three seeds on
six-app mixes, the LRU cell of a grouped Table 3 replay, bandwidth
contention (miss penalties rescaled every epoch) at two channel peaks,
and scaleout machines of 12, 24 and 48 apps.  The wide machines matter:
from eight elements on NumPy sums with eight running partial sums, not
left to right, and the float loop must follow that order.
"""

import pytest

from repro.experiments.bandwidth_study import BandwidthSpec
from repro.experiments.scaleout import ScaleoutSpec
from repro.policies.lru import LRUPolicy
from repro.runtime.session import DEFAULT_POLICIES
from repro.runtime.spec import PolicySpec
from repro.sim.mix_runner import MixRunner
from repro.sim.reference import run_unmanaged
from repro.sim.study_runner import bandwidth_engine, scaleout_engine
from repro.workloads.latency_critical import LC_NAMES
from repro.workloads.mixes import HIGH_LOAD, LOW_LOAD, make_mix_specs

SEEDS = (2014, 5, 77)

#: One batch trio per seed, so the arms also vary the co-runners.
MIX_INDEX = {2014: 0, 5: 9, 77: 19}

REQUESTS = 40


def assert_identical(got, want):
    """Bit-identity, field by field, then whole-result equality."""
    assert len(got.lc_instances) == len(want.lc_instances)
    for g_inst, o_inst in zip(got.lc_instances, want.lc_instances):
        assert g_inst.latencies == o_inst.latencies  # raw float ==
        assert g_inst.requests_served == o_inst.requests_served
        assert g_inst.activations == o_inst.activations
    assert len(got.batch_apps) == len(want.batch_apps)
    for g_batch, o_batch in zip(got.batch_apps, want.batch_apps):
        assert g_batch.instructions == o_batch.instructions
        assert g_batch.cycles == o_batch.cycles
    assert got.duration_cycles == want.duration_cycles
    assert got == want  # every remaining field, exactly


def assert_engines_agree(engine, oracle_engine):
    """Both runs, plus the LC counters the results do not carry."""
    assert_identical(engine.run(), run_unmanaged(oracle_engine))
    for lc, twin in zip(engine.lc_apps, oracle_engine.lc_apps):
        assert lc.total_accesses == twin.total_accesses
        assert lc.total_misses == twin.total_misses
        assert lc.stats.idle_time == twin.stats.idle_time


@pytest.fixture(scope="module")
def runners():
    """One runner per seed, so baselines are computed once per module."""
    return {seed: MixRunner(requests=REQUESTS, seed=seed) for seed in SEEDS}


def mix_spec(lc_name, load, seed):
    specs = make_mix_specs(lc_names=[lc_name], loads=[load], mixes_per_combo=1)
    return specs[MIX_INDEX[seed]]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("load", [LOW_LOAD, HIGH_LOAD])
@pytest.mark.parametrize("lc_name", LC_NAMES)
def test_six_app_mixes_match_the_oracle(runners, lc_name, load, seed):
    runner = runners[seed]
    spec = mix_spec(lc_name, load, seed)
    assert_engines_agree(
        runner.mix_engine(spec, LRUPolicy()),
        runner.mix_engine(spec, LRUPolicy()),
    )


def test_lru_cell_of_a_grouped_replay_matches_the_oracle(runners):
    """Table 3 replays its five policies as one replay group; the LRU
    cell takes the same unmanaged loop as an ungrouped run."""
    runner = runners[2014]
    spec = mix_spec("masstree", LOW_LOAD, 2014)
    cells = [(policy.build(), None) for policy in DEFAULT_POLICIES]
    results = runner.run_mix_group(spec, cells)
    lru = [
        result
        for (policy, __), result in zip(cells, results)
        if not policy.uses_partitioning
    ]
    assert len(lru) == 1
    oracle = run_unmanaged(runner.mix_engine(spec, LRUPolicy()))
    oracle.baseline_tail_cycles = lru[0].baseline_tail_cycles
    assert_identical(lru[0], oracle)


@pytest.mark.parametrize("peak", [160.0, 70.0])
def test_bandwidth_contention_matches_the_oracle(peak):
    spec = BandwidthSpec(
        peak_misses_per_kilocycle=peak,
        policy=PolicySpec.of("lru"),
        requests=REQUESTS,
    )
    engine, __ = bandwidth_engine(spec)
    oracle_engine, __ = bandwidth_engine(spec)
    assert_engines_agree(engine, oracle_engine)
    # The arm is live: contention moved the penalties away from base.
    assert all(app.miss_penalty > app.base_miss_penalty for app in engine.apps)


@pytest.mark.parametrize("seed", [21, 77])
@pytest.mark.parametrize("cores", [12, 24, 48])
def test_scaleout_machines_match_the_oracle(cores, seed):
    spec = ScaleoutSpec(
        cores=cores, policy=PolicySpec.of("lru"), requests=REQUESTS, seed=seed
    )
    engine, __ = scaleout_engine(spec)
    oracle_engine, __ = scaleout_engine(spec)
    assert len(engine.apps) == cores
    assert_engines_agree(engine, oracle_engine)

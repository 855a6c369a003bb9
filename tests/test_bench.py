"""Tests for repro.bench: the tracked benchmark harness + schema gate."""

import json
import math
import pathlib
import re

import pytest

from repro.bench import (
    ARCHIVED_SCHEMAS,
    BENCH_SCHEMA,
    KERNEL_NAMES,
    SPEEDUP_FLOORS,
    default_bench_path,
    format_bench,
    run_bench,
    validate_bench,
    write_bench,
)


PERF_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "perf"

#: (kernel, speedup floor, first document): the floor holds on that
#: document and every later one, until a later row for the same kernel
#: replaces it.  stream_synthesis must beat its oracle outright: its
#: floor is the smallest float above 1.0.
TRAJECTORY_FLOORS = [
    ("trace_replay", 3.0, "BENCH_pr4.json"),
    ("warm_sweep_grid", 2.0, "BENCH_pr5.json"),
    ("stream_synthesis", math.nextafter(1.0, 2.0), "BENCH_pr5.json"),
    ("joint_replay_grid", 2.0, "BENCH_pr7.json"),
    ("lockstep_replay", 2.0, "BENCH_pr10.json"),
    # Re-based when the grouped per-cell loop it was timed against was
    # deleted (see benchmarks/perf/README.md).
    ("lockstep_replay", 4.5, "BENCH_pr15.json"),
    ("repartition_table", 3.0, "BENCH_pr16.json"),
    # Re-based when its baseline arm took on the full-rescan Lookahead
    # as well as the NumPy walks (see benchmarks/perf/README.md).
    ("repartition_table", 5.0, "BENCH_pr23.json"),
]

#: (document, kernel) pairs that read below a floor in force.
KNOWN_MISSES = {
    ("BENCH_pr6.json", "trace_replay"),  # 2.68x against 3.0x
    ("BENCH_pr10.json", "joint_replay_grid"),  # 1.61x against 2.0x
}


def committed_documents():
    """The committed trajectory, oldest first (by PR number)."""
    return sorted(
        PERF_DIR.glob("BENCH_*.json"),
        key=lambda path: int(re.fullmatch(r"BENCH_pr(\d+)\.json", path.name)[1]),
    )


def floors_in_force(names):
    """kernel -> floor once the documents ``names`` are committed."""
    floors = {}
    for kernel, floor, first in TRAJECTORY_FLOORS:
        if first in names:
            floors[kernel] = floor
    return floors


@pytest.fixture(scope="module")
def quick_payload():
    """One real quick run shared by the module (kernels are not free)."""
    return run_bench(quick=True, repeats=1)


class TestRunBench:
    def test_document_shape(self, quick_payload):
        assert quick_payload["schema"] == BENCH_SCHEMA
        assert quick_payload["quick"] is True
        assert set(quick_payload["kernels"]) == set(KERNEL_NAMES)
        for name in KERNEL_NAMES:
            entry = quick_payload["kernels"][name]
            assert entry["seconds"] > 0
            assert entry["seconds"] == min(entry["runs"])
            assert entry["units"] > 0
            assert entry["ns_per_unit"] > 0

    @pytest.mark.parametrize(
        "kernel",
        [
            "trace_replay",
            "warm_sweep_grid",
            "stream_synthesis",
            "joint_replay_grid",
            "lockstep_replay",
            "repartition_table",
        ],
    )
    def test_compared_kernels_record_baseline_and_speedup(
        self, quick_payload, kernel
    ):
        entry = quick_payload["kernels"][kernel]
        assert entry["verified_identical"] is True
        assert entry["baseline_seconds"] > 0
        assert entry["speedup"] == pytest.approx(
            entry["baseline_seconds"] / entry["seconds"]
        )
        # No timing floor here: tier-1 must never flake on machine
        # noise (coverage tracing, loaded CI boxes).  The >=3x replay
        # and >=2x warm-grid acceptances live in
        # test_committed_trajectory_validates, pinned against the
        # committed BENCH_pr4.json / BENCH_pr5.json documents.
        assert entry["speedup"] > 0

    def test_validates_clean(self, quick_payload):
        assert validate_bench(quick_payload) == []

    def test_repeats_validation(self):
        with pytest.raises(ValueError):
            run_bench(quick=True, repeats=0)

    def test_joint_replay_grid_refuses_to_time_a_divergence(self, monkeypatch):
        """The batched arm is verified against the per-cell oracle
        *before* any time is recorded: force the equality seam to
        report a divergence and the kernel must raise, not emit a
        document entry with a meaningless speedup."""
        import repro.bench as bench

        monkeypatch.setattr(bench, "_mix_results_identical", lambda a, b: False)
        with pytest.raises(RuntimeError, match="per-cell oracle"):
            bench._bench_joint_replay_grid(20, 1)

    def test_lockstep_replay_refuses_to_time_a_divergence(self, monkeypatch):
        """Same wall for the lockstep kernel: its arm is verified
        against the per-cell oracle before timing, through the same
        equality seam."""
        import repro.bench as bench

        monkeypatch.setattr(bench, "_mix_results_identical", lambda a, b: False)
        with pytest.raises(RuntimeError, match="per-cell oracle"):
            bench._bench_lockstep_replay(20, 1)

    def test_repartition_table_refuses_to_time_a_divergence(self, monkeypatch):
        """The table kernel compares every row with the reference walks
        before timing: a reference that reads differently must make it
        raise."""
        import repro.bench as bench
        import repro.core.reference as reference

        class Skewed(reference.NaiveRepartitionTable):
            def row(self, level):
                return super().row(level) + 1

        monkeypatch.setattr(reference, "NaiveRepartitionTable", Skewed)
        with pytest.raises(RuntimeError, match="reference walks"):
            bench._bench_repartition_table(2, 1)


class TestSchemaGate:
    def test_detects_missing_kernel(self, quick_payload):
        broken = json.loads(json.dumps(quick_payload))
        del broken["kernels"]["trace_replay"]
        assert any("trace_replay" in p for p in validate_bench(broken))

    def test_detects_missing_field(self, quick_payload):
        broken = json.loads(json.dumps(quick_payload))
        del broken["kernels"]["mix_run"]["ns_per_unit"]
        assert any("ns_per_unit" in p for p in validate_bench(broken))

    def test_detects_wrong_schema_tag(self, quick_payload):
        broken = dict(quick_payload, schema="repro-bench/999")
        assert any("schema" in p for p in validate_bench(broken))

    def test_detects_non_document(self):
        assert validate_bench([1, 2, 3])
        assert validate_bench(None)

    def test_timing_values_never_gate(self, quick_payload):
        """Absurd timings must still validate — CI gates drift only."""
        noisy = json.loads(json.dumps(quick_payload))
        for entry in noisy["kernels"].values():
            entry["seconds"] = 1e9
            entry["runs"] = [1e9]
        assert validate_bench(noisy) == []


class TestWriteBench:
    def test_round_trip(self, quick_payload, tmp_path):
        path = write_bench(quick_payload, out=tmp_path / "BENCH_test.json")
        loaded = json.loads(path.read_text())
        assert validate_bench(loaded) == []
        assert loaded["revision"] == quick_payload["revision"]

    def test_default_path_uses_revision(self):
        assert default_bench_path("abc123").name == "BENCH_abc123.json"

    def test_check_tool_accepts_written_file(self, quick_payload, tmp_path):
        import importlib.util
        import pathlib

        tool = pathlib.Path(__file__).resolve().parents[1] / "tools" / "check_bench.py"
        spec = importlib.util.spec_from_file_location("check_bench", tool)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        path = write_bench(quick_payload, out=tmp_path / "BENCH_x.json")
        assert module.check_file(path) == []
        assert module.main([str(path)]) == 0
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{}")
        assert module.main([str(bad)]) == 1

    def test_committed_trajectory_validates(self):
        """Every BENCH_*.json checked into benchmarks/perf/ must pass
        the schema gate, and every floor in TRAJECTORY_FLOORS must hold
        on every committed document from the one that set it onward,
        until a later row for the same kernel replaces it.  Timing
        values are otherwise not gated (committing an honest
        measurement from a slow machine must never break tier-1); a
        document that missed a floor is listed in KNOWN_MISSES and must
        still read below it, so the list cannot go stale."""
        documents = committed_documents()
        assert documents, "the committed benchmark trajectory is empty"
        names = [document.name for document in documents]
        first_docs = {first for _, _, first in TRAJECTORY_FLOORS}
        assert first_docs <= set(names)
        checked = set()
        for position, document in enumerate(documents):
            payload = json.loads(document.read_text())
            assert validate_bench(payload) == []
            for kernel, floor in floors_in_force(names[: position + 1]).items():
                entry = payload["kernels"][kernel]
                assert entry["verified_identical"] is True
                if (document.name, kernel) in KNOWN_MISSES:
                    assert entry["speedup"] < floor, (document.name, kernel)
                    checked.add((document.name, kernel))
                else:
                    assert entry["speedup"] >= floor, (document.name, kernel)
        assert checked == KNOWN_MISSES

    def test_trajectory_ends_at_the_committed_floors(self):
        """The newest row per kernel is the floor ``repro bench
        --compare`` reports against."""
        names = [document.name for document in committed_documents()]
        current = floors_in_force(names)
        for kernel, floor in SPEEDUP_FLOORS.items():
            assert current[kernel] == floor

    @pytest.mark.parametrize(
        "document", committed_documents(), ids=lambda path: path.name
    )
    def test_committed_document_reads_under_its_rules(self, document):
        """Each committed document validates: the current generation in
        full, an archived one by the common core.  Retagged as the
        current generation, it is flagged for exactly the current
        kernels it lacks.  An archived document that drops a compared
        kernel's comparison field is flagged for it."""
        payload = json.loads(document.read_text())
        assert payload["schema"] in (BENCH_SCHEMA,) + ARCHIVED_SCHEMAS
        assert validate_bench(payload) == []
        retagged = dict(payload, schema=BENCH_SCHEMA)
        lacking = [name for name in KERNEL_NAMES if name not in payload["kernels"]]
        assert validate_bench(retagged) == [
            f"missing kernel {name!r}" for name in lacking
        ]
        broken = json.loads(json.dumps(payload))
        del broken["kernels"]["trace_replay"]["speedup"]
        assert validate_bench(broken) == [
            "kernel 'trace_replay' missing 'speedup'"
        ]


class TestCompareBench:
    def test_same_generation_compare(self, quick_payload):
        from repro.bench import compare_bench

        comparison = compare_bench(quick_payload, quick_payload)
        assert set(comparison["kernels"]) == set(KERNEL_NAMES)
        assert comparison["only_old"] == comparison["only_new"] == []
        for row in comparison["kernels"].values():
            assert row["ratio"] == pytest.approx(1.0)
        lockstep = comparison["kernels"]["lockstep_replay"]
        assert lockstep["floor"] == 4.5
        assert isinstance(lockstep["floor_met"], bool)

    def test_cross_generation_compare(self, quick_payload):
        """An older committed document compares over the shared kernel
        set; kernels its generation predates land in only_new."""
        import pathlib

        from repro.bench import compare_bench

        perf = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "perf"
        old = json.loads((perf / "BENCH_pr9.json").read_text())
        comparison = compare_bench(old, quick_payload)
        assert comparison["only_new"] == ["lockstep_replay", "repartition_table"]
        assert comparison["only_old"] == [
            "cluster_roundtrip",
            "store_backend_roundtrip",
            "store_roundtrip",
        ]
        assert "lockstep_replay" not in comparison["kernels"]
        assert "joint_replay_grid" in comparison["kernels"]
        floor_row = comparison["kernels"]["joint_replay_grid"]
        assert floor_row["floor"] == 2.0

    def test_rejects_invalid_documents(self, quick_payload):
        from repro.bench import compare_bench

        with pytest.raises(ValueError, match="old document"):
            compare_bench({}, quick_payload)
        with pytest.raises(ValueError, match="new document"):
            compare_bench(quick_payload, {"schema": "nope"})

    def test_format_compare_reports_floor_status(self, quick_payload):
        from repro.bench import compare_bench, format_compare

        text = format_compare(compare_bench(quick_payload, quick_payload))
        assert "lockstep_replay" in text
        assert "floor 2.0x" in text
        assert "floor 4.5x" in text


def test_format_bench_lists_every_kernel(quick_payload):
    text = format_bench(quick_payload)
    for name in KERNEL_NAMES:
        assert name in text

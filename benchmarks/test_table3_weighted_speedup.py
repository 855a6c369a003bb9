"""Table 3: average weighted speedups for all schemes.

Expected ordering (paper, OOO cores): UCP ~ OnOff ~ Ubik at the top,
LRU trailing, StaticLC last; every scheme gains over private LLCs.
"""

from conftest import run_once

from repro.experiments.common import default_scale
from repro.experiments.table3_speedups import format_table3, run_table3


def test_table3_weighted_speedups(benchmark, emit):
    measured = run_once(benchmark, lambda: run_table3(default_scale()))
    emit("table3", format_table3(measured))

    for load_label in ("lo", "hi"):
        row = measured[load_label]
        # Everyone gains over private LLCs.
        assert all(v > 0 for v in row.values()), row
        # StaticLC is the weakest batch performer.
        assert row["StaticLC"] <= min(row["UCP"], row["OnOff"], row["Ubik"])
        # Ubik is competitive with the best-effort schemes.  Our sizing
        # is more conservative than the paper's, so the tolerated gap
        # to UCP is wider than theirs (~1pp).
        assert row["Ubik"] >= row["UCP"] - 6.0
        assert row["Ubik"] >= row["OnOff"] - 3.0
        assert row["Ubik"] > row["StaticLC"]

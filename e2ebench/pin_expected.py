"""Regenerate the records ``run.py`` checks at the default seed.

Run from the repository root after an intentional change to the
simulated numbers::

    python3 e2ebench/pin_expected.py

Each step runs cold in a fresh process against an empty store, exactly
as the benchmark runs it, and the artifact it returned and its per-cell
records are written to ``e2ebench/expected/<step>.json``.
"""

import json
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))
from grid import DEFAULT_SEED, STEPS  # noqa: E402


def main() -> int:
    run.WORK_DIR.mkdir(exist_ok=True)
    run.EXPECTED_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as scratch:
        scratch = Path(scratch)
        env = run.child_env(scratch / "pycache")
        results = run.run_steps(STEPS, DEFAULT_SEED, scratch / "store", scratch, env)
    for step, result in results.items():
        if result is None:
            return 1
        expected = {key: result["report"][key] for key in ("value", "records")}
        path = run.EXPECTED_DIR / f"{step}.json"
        path.write_text(json.dumps(expected, indent=1) + "\n")
        print(f"wrote the artifact and {len(expected['records'])} records to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

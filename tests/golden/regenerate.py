"""Regenerate the golden fixtures after an *intentional* change.

Usage::

    PYTHONPATH=src python tests/golden/regenerate.py

Rewrites ``tests/golden/fixtures/*.json`` from the current engine.
Only do this when a PR deliberately changes simulation semantics — and
bump ``repro.runtime.spec.SPEC_SCHEMA_VERSION`` in the same PR so
persisted stores from the old generation prune cleanly.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from test_golden import BUILDERS, FIXTURES  # noqa: E402

from repro.runtime import ResultStore, Session  # noqa: E402
from repro.runtime.spec import canonical_json  # noqa: E402


def main() -> int:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    session = Session(store=ResultStore(None), jobs=1)
    for name, builder in sorted(BUILDERS.items()):
        payload = json.loads(canonical_json(builder(session)))
        path = FIXTURES / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
